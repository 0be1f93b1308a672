//! Property-based tests (proptest) on the core invariants of the data model
//! and the query language, plus old/new equivalence properties of the
//! streaming columnar training pipeline.

use perfxplain::pxql::{parse_predicate, parse_query, Atom, Op, Predicate, Value};
use perfxplain::{
    compute_pair_features, BoundQuery, ExecutionLog, ExecutionRecord, ExplainConfig,
    FeatureCatalog, FeatureDef, PairExample, PairLabel,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_record(id: String) -> impl Strategy<Value = ExecutionRecord> {
    (
        -1.0e9..1.0e9f64,
        0.0..1.0e12f64,
        prop_oneof![Just("simple-filter.pig"), Just("simple-groupby.pig")],
        1.0..4000.0f64,
    )
        .prop_map(move |(metric, inputsize, script, duration)| {
            ExecutionRecord::job(id.clone())
                .with_feature("somemetric", metric)
                .with_feature("inputsize", inputsize)
                .with_feature("pigscript", script)
                .with_feature("duration", duration)
        })
}

fn catalog() -> FeatureCatalog {
    FeatureCatalog::from_defs(vec![
        FeatureDef::numeric("somemetric"),
        FeatureDef::numeric("inputsize"),
        FeatureDef::nominal("pigscript"),
        FeatureDef::numeric("duration"),
    ])
}

// ---------------------------------------------------------------------------
// Pair-feature construction invariants (Table 1)
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn pair_features_satisfy_table1_invariants(
        left in arb_record("left".to_string()),
        right in arb_record("right".to_string()),
    ) {
        let catalog = catalog();
        let features = compute_pair_features(&catalog, &left, &right, 0.10);
        for def in catalog.defs() {
            let is_same = features.get(&format!("{}_isSame", def.name)).unwrap();
            let compare = features.get(&format!("{}_compare", def.name)).unwrap();
            let diff = features.get(&format!("{}_diff", def.name)).unwrap();
            let base = features.get(&def.name).unwrap();

            // isSame = T  ⇒  the base feature carries the shared value and
            //               the diff feature is missing.
            if *is_same == Value::Bool(true) {
                prop_assert!(!base.is_null());
                prop_assert!(diff.is_null());
                // A numeric pair that is exactly equal is also SIM.
                if let Value::Str(c) = compare {
                    prop_assert_eq!(c.as_str(), "SIM");
                }
            }
            // isSame = F  ⇒  no base value is copied.
            if *is_same == Value::Bool(false) {
                prop_assert!(base.is_null());
            }
            // compare is only ever LT / SIM / GT, and only for numeric
            // features.
            if let Value::Str(c) = compare {
                prop_assert!(["LT", "SIM", "GT"].contains(&c.as_str()));
                prop_assert_eq!(def.kind, perfxplain::FeatureKind::Numeric);
            }
            // diff is only defined for nominal features and always carries a
            // pair of values.
            if !diff.is_null() {
                prop_assert_eq!(def.kind, perfxplain::FeatureKind::Nominal);
                prop_assert!(matches!(diff, Value::Pair(_, _)));
            }
        }
    }

    #[test]
    fn pair_features_are_symmetric_under_swap(
        left in arb_record("left".to_string()),
        right in arb_record("right".to_string()),
    ) {
        let catalog = catalog();
        let forward = compute_pair_features(&catalog, &left, &right, 0.10);
        let backward = compute_pair_features(&catalog, &right, &left, 0.10);
        for def in catalog.defs() {
            // isSame is symmetric.
            prop_assert_eq!(
                forward.get(&format!("{}_isSame", def.name)),
                backward.get(&format!("{}_isSame", def.name))
            );
            // compare flips LT <-> GT and keeps SIM.
            let f = forward.get(&format!("{}_compare", def.name)).unwrap();
            let b = backward.get(&format!("{}_compare", def.name)).unwrap();
            match (f, b) {
                (Value::Str(x), Value::Str(y)) => {
                    let flipped = match x.as_str() {
                        "LT" => "GT",
                        "GT" => "LT",
                        other => other,
                    };
                    prop_assert_eq!(flipped, y.as_str());
                }
                (Value::Null, Value::Null) => {}
                other => prop_assert!(false, "asymmetric compare: {:?}", other),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PXQL invariants
// ---------------------------------------------------------------------------

fn arb_atom() -> impl Strategy<Value = Atom> {
    (
        // Feature names never collide with PXQL keywords thanks to the
        // prefix.
        "f_[a-z_]{0,10}",
        prop_oneof![
            Just(Op::Eq),
            Just(Op::Ne),
            Just(Op::Lt),
            Just(Op::Le),
            Just(Op::Gt),
            Just(Op::Ge)
        ],
        prop_oneof![
            (-1.0e6..1.0e6f64).prop_map(Value::Num),
            any::<bool>().prop_map(Value::Bool),
            "[A-Za-z][A-Za-z0-9_.-]{0,8}".prop_map(Value::Str),
        ],
    )
        .prop_map(|(feature, op, constant)| Atom {
            feature,
            op,
            constant,
        })
}

proptest! {
    #[test]
    fn predicates_round_trip_through_their_display_form(
        atoms in proptest::collection::vec(arb_atom(), 1..5)
    ) {
        let predicate = Predicate::from_atoms(atoms);
        let text = predicate.to_string();
        let reparsed = parse_predicate(&text).expect("rendered predicates parse");
        prop_assert_eq!(reparsed.width(), predicate.width());
        // Evaluation agrees on the features the predicate mentions (built
        // from the predicate's own constants, so equality atoms hold).
        let mut features = std::collections::BTreeMap::new();
        for atom in predicate.atoms() {
            features.insert(atom.feature.clone(), atom.constant.clone());
        }
        prop_assert_eq!(reparsed.eval(&features), predicate.eval(&features));
    }

    #[test]
    fn atoms_on_missing_features_never_hold(atom in arb_atom()) {
        let empty: std::collections::BTreeMap<String, Value> = std::collections::BTreeMap::new();
        prop_assert!(!atom.eval(&empty));
    }
}

// ---------------------------------------------------------------------------
// Classification / metric invariants over small random logs
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn classification_is_consistent_with_metric_bounds(seed in 0u64..1000) {
        // Build a small random-ish log deterministically from the seed.
        let mut log = ExecutionLog::new();
        for i in 0..14u64 {
            let x = (seed.wrapping_mul(31).wrapping_add(i * 7)) % 5;
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", (1 + x) as f64 * 1.0e9)
                    .with_feature("blocksize", if i % 2 == 0 { 1024.0 } else { 64.0 })
                    .with_feature("duration", 100.0 + (x as f64) * 120.0 + (i % 3) as f64),
            );
        }
        log.rebuild_catalogs();

        let query = perfxplain::pxql::parse_query(
            "OBSERVED duration_compare = SIM\nEXPECTED duration_compare = GT",
        )
        .unwrap();
        let bound = BoundQuery::new(query, "job_0", "job_1");
        let config = ExplainConfig::default().with_sample_size(200);

        // Every related pair is classified consistently with its own
        // features, and metric estimates stay within [0, 1].
        let catalog = log.job_catalog().clone();
        let jobs: Vec<&ExecutionRecord> = log.jobs().collect();
        let mut observed = 0usize;
        let mut expected = 0usize;
        for a in &jobs {
            for b in &jobs {
                if a.id == b.id {
                    continue;
                }
                let pair = PairExample::build(&catalog, a, b, config.sim_threshold);
                match bound.classify(&pair) {
                    PairLabel::Observed => observed += 1,
                    PairLabel::Expected => expected += 1,
                    PairLabel::Unrelated => {}
                }
            }
        }
        if observed > 0 && expected > 0 {
            let set = perfxplain::prepare_training_set(&log, &bound, &config).unwrap();
            prop_assert_eq!(set.num_observed() + set.num_expected(), set.len());
            let quality = perfxplain::assess(&set, &perfxplain::Explanation::default());
            for estimate in [quality.precision, quality.generality, quality.relevance] {
                if let Some(v) = estimate.value {
                    prop_assert!((0.0..=1.0).contains(&v));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming columnar pipeline ≡ map-based pipeline
// ---------------------------------------------------------------------------

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic pseudo-random log of 10–17 jobs: numeric and nominal
/// features, missing values, and duration regimes that give both observed
/// and expected pairs.
fn random_log(seed: u64) -> ExecutionLog {
    random_log_of(seed, 10 + (mix(seed) % 8) as usize)
}

/// [`random_log`] with exactly `n` jobs.
fn random_log_of(seed: u64, n: usize) -> ExecutionLog {
    let mut log = ExecutionLog::new();
    for i in 0..n {
        let h = mix(seed.wrapping_mul(31).wrapping_add(i as u64));
        let input = [1.0e9, 4.0e9, 32.0e9][(h % 3) as usize];
        let blocks = [64.0, 256.0, 1024.0][((h >> 8) % 3) as usize];
        let script = ["a.pig", "b.pig", "c.pig"][((h >> 16) % 3) as usize];
        let fast = (h >> 24).is_multiple_of(2);
        let duration = if fast {
            600.0
        } else {
            input / 5.0e7 + (h % 7) as f64
        };
        let mut record = ExecutionRecord::job(format!("job_{i}"))
            .with_feature("inputsize", input)
            .with_feature("blocksize", blocks)
            .with_feature("duration", duration);
        // Sprinkle in missing and nominal features.
        if !(h >> 32).is_multiple_of(4) {
            record.set_feature("pigscript", script);
        }
        if !(h >> 34).is_multiple_of(3) {
            record.set_feature("iosortfactor", 10.0 + ((h >> 36) % 3) as f64);
        }
        log.push(record);
    }
    log.rebuild_catalogs();
    log
}

/// A pool of structurally different queries: compare / isSame-blocking /
/// no-despite / base-feature atoms.
fn query_pool() -> Vec<perfxplain::pxql::PxqlQuery> {
    let mut queries = vec![
        parse_query(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap(),
        parse_query(
            "DESPITE pigscript_isSame = T\n\
             OBSERVED duration_compare = GT\n\
             EXPECTED duration_compare = SIM",
        )
        .unwrap(),
        parse_query(
            "OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap(),
    ];
    // A despite clause over a base feature and an isSame feature together.
    let base = parse_query("OBSERVED duration_compare = SIM\nEXPECTED duration_compare = GT")
        .unwrap()
        .with_despite(Predicate::from_atoms(vec![
            Atom::new("blocksize", Op::Ge, 256i64),
            Atom::eq("inputsize_isSame", false),
        ]));
    queries.push(base);
    queries
}

/// The eager, map-based reference: classify every ordered pair through
/// `compute_selected_pair_features` (exactly what the seed implementation
/// did, minus blocking/capping, which only prune pairs that classify as
/// unrelated anyway).
fn reference_related_pairs(
    log: &ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Vec<(usize, usize, PairLabel)> {
    let records: Vec<&ExecutionRecord> = log.jobs().collect();
    let mut related = Vec::new();
    for i in 0..records.len() {
        for j in 0..records.len() {
            if i == j {
                continue;
            }
            let label = query.classify_records(log, records[i], records[j], config.sim_threshold);
            if label.is_related() {
                related.push((i, j, label));
            }
        }
    }
    related
}

/// Checks that the streaming enumerator yields exactly the related pairs
/// (and labels) of the eager map-based path for every query of the pool.
fn streaming_matches_the_map_based_path(log: &ExecutionLog) -> Result<(), TestCaseError> {
    let config = uncapped_config();
    for query in query_pool() {
        let bound = BoundQuery::new(query, "job_0", "job_1");
        let (_, related) = perfxplain_core::training::collect_related_pairs(log, &bound, &config);
        let mut streaming: Vec<(usize, usize, PairLabel)> =
            related.iter().map(|p| (p.left, p.right, p.label)).collect();
        streaming.sort_unstable_by_key(|&(l, r, _)| (l, r));
        let mut reference = reference_related_pairs(log, &bound, &config);
        reference.sort_unstable_by_key(|&(l, r, _)| (l, r));
        prop_assert_eq!(streaming, reference);
    }
    Ok(())
}

/// The fixed input of `streaming_related_pairs_match_the_map_based_path`:
/// one job more than the fan-out threshold, so an unblocked query's plan
/// crosses the candidate-count gate and, on a multi-core machine, the
/// enumeration fans out before it is checked against the map-based path.
#[test]
fn streaming_related_pairs_match_the_map_based_path_past_the_fan_out_gate() {
    let log = random_log_of(7, perfxplain_core::PARALLEL_ENUMERATION_THRESHOLD + 1);
    streaming_matches_the_map_based_path(&log).unwrap();
}

/// An uncapped configuration, so streaming and eager candidate selection
/// are comparable as sets.
fn uncapped_config() -> ExplainConfig {
    let mut config = ExplainConfig::default().with_sample_size(400);
    config.max_candidate_pairs = usize::MAX;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The streaming enumerator yields exactly the related pairs (and
    /// labels) of the eager map-based path.
    #[test]
    fn streaming_related_pairs_match_the_map_based_path(seed in 0u64..500) {
        streaming_matches_the_map_based_path(&random_log(seed))?;
    }

    /// The one-pass columnar dataset encoding produces a dataset identical
    /// to the PairExample-map bridge: same schema, same pair-of-interest
    /// row, same cells and labels — and therefore the same induced decision
    /// tree.
    #[test]
    fn encoded_dataset_and_induced_tree_match_the_bridge(seed in 0u64..200) {
        use perfxplain_core::bridge::DatasetBridge;
        use perfxplain_core::pairs::PairCatalog;
        use perfxplain::mlcore::{DecisionTree, TreeConfig};

        let log = random_log(seed);
        let config = uncapped_config();
        for query in query_pool() {
            let bound = BoundQuery::new(query, "job_0", "job_1");
            let Ok(poi) = bound.verify_preconditions(&log, config.sim_threshold) else {
                continue;
            };
            let Ok(encoded) =
                perfxplain_core::training::prepare_encoded_training(&log, &bound, &config)
            else {
                continue;
            };
            let set = perfxplain::prepare_training_set(&log, &bound, &config).unwrap();
            let catalog = PairCatalog::from_raw(log.job_catalog())
                .restrict_to_groups(config.feature_level.allowed_groups());
            let excluded = perfxplain_core::query::excluded_raw_features(&bound, &config);

            let by_maps = DatasetBridge::build(&set, &poi, &catalog, &excluded);
            let poi_rows = (
                encoded.view.row_of(&bound.left_id).unwrap(),
                encoded.view.row_of(&bound.right_id).unwrap(),
            );
            let by_view = DatasetBridge::encode_from_view(
                &encoded, poi_rows, &catalog, &excluded, config.sim_threshold,
            );

            prop_assert_eq!(by_maps.num_attributes(), by_view.num_attributes());
            for attr in 0..by_maps.num_attributes() {
                prop_assert_eq!(by_maps.attr_name(attr), by_view.attr_name(attr));
                prop_assert_eq!(
                    by_maps.poi_value(attr), by_view.poi_value(attr),
                    "poi diverges on {} (seed {})", by_maps.attr_name(attr), seed
                );
            }
            let (a, b) = (by_maps.dataset(), by_view.dataset());
            prop_assert_eq!(a.len(), b.len());
            prop_assert_eq!(a.labels(), b.labels());
            prop_assert_eq!(a.attributes(), b.attributes());
            for row in 0..a.len() {
                prop_assert_eq!(a.row(row), b.row(row), "row {} diverges", row);
            }

            // Identical datasets induce identical decision trees.
            let tree_a = DecisionTree::fit(a, TreeConfig::default());
            let tree_b = DecisionTree::fit(b, TreeConfig::default());
            prop_assert_eq!(tree_a.root(), tree_b.root());
        }
    }

    /// An [`perfxplain::XplainService`] never serves a stale view: under any
    /// interleaving of `push` / `rebuild_catalogs` mutations and queries,
    /// every query's answer is identical to a stateless engine running
    /// against a freshly encoded snapshot of the log at that moment.
    #[test]
    fn service_answers_match_a_fresh_view_under_any_interleaving(
        seed in 0u64..120,
        ops in proptest::collection::vec(0u32..4, 1usize..12),
    ) {
        use perfxplain::{PerfXplain, QueryRequest, XplainService};

        let config = uncapped_config();
        let service = XplainService::with_config(random_log(seed), config.clone());
        let engine = PerfXplain::new(config.clone());
        let queries = query_pool();

        let mut extra = 0usize;
        for (step, op) in ops.iter().enumerate() {
            match op {
                // Mutate: push a record (catalogs intentionally left stale
                // until the next rebuild, as after any bulk load).
                0 => service.with_log_mut(|log| {
                    extra += 1;
                    let h = seed.wrapping_mul(131).wrapping_add(step as u64);
                    log.push(
                        ExecutionRecord::job(format!("extra_{extra}"))
                            .with_feature("inputsize", [1.0e9, 4.0e9, 32.0e9][(h % 3) as usize])
                            .with_feature("blocksize", 256.0)
                            .with_feature("duration", 400.0 + (h % 300) as f64),
                    );
                }),
                // Mutate: recompute the catalogs.
                1 => service.with_log_mut(|log| log.rebuild_catalogs()),
                // Query: the service (cached view) must agree with a fresh
                // engine over a snapshot of the current log.
                _ => {
                    let query = queries[(seed as usize + step) % queries.len()].clone();
                    let bound = BoundQuery::new(query, "job_0", "job_1");
                    let served = service.explain(&QueryRequest::bound(bound.clone()));
                    let snapshot = service.snapshot();
                    let fresh = engine.explain(&snapshot, &bound);
                    prop_assert_eq!(service.generation(), snapshot.generation());
                    match (&served, &fresh) {
                        (Ok(outcome), Ok(explanation)) => {
                            prop_assert_eq!(&outcome.explanation, explanation);
                            prop_assert_eq!(outcome.generation, snapshot.generation());
                        }
                        (Err(a), Err(b)) => prop_assert_eq!(a, b),
                        other => prop_assert!(false, "service/fresh divergence: {:?}", other),
                    }
                }
            }
        }
    }

    /// Delta-maintained views are bit-identical to a from-scratch rebuild.
    /// Under any interleaving of appends (the O(tail) delta-refresh path),
    /// appends that change the catalog (forced full rebuild), non-append
    /// mutations (`with_log_mut`, unconditional eviction), tail compactions
    /// and queries, the view the service serves after every step equals
    /// `ColumnarLog::build_sharded` over a snapshot of the log at that
    /// moment — and query answers agree with a stateless engine.
    #[test]
    fn delta_maintained_views_are_bit_identical_to_a_rebuild(
        seed in 0u64..120,
        shards in 1usize..8,
        ops in proptest::collection::vec(0u32..8, 1usize..14),
    ) {
        use perfxplain::{ExecutionKind, PerfXplain, QueryRequest, XplainService};
        use perfxplain_core::columnar::ColumnarLog;

        let config = uncapped_config();
        let service = XplainService::with_config(random_log(seed), config.clone());
        let engine = PerfXplain::new(config.clone());
        let queries = query_pool();

        let mut extra = 0usize;
        for (step, op) in ops.iter().enumerate() {
            let h = seed.wrapping_mul(131).wrapping_add(step as u64);
            match op {
                // Append through the delta path: known features only, so
                // the catalog (and the rewrite watermark) stay put.  Every
                // third batch reuses an existing id — appended duplicates
                // must shadow their base rows exactly like a rebuild.
                0..=2 => {
                    extra += 1;
                    let id = if h % 3 == 0 {
                        "job_0".to_string()
                    } else {
                        format!("appended_{extra}")
                    };
                    service.append(vec![
                        ExecutionRecord::job(id)
                            .with_feature("inputsize", [1.0e9, 4.0e9, 32.0e9][(h % 3) as usize])
                            .with_feature("blocksize", 256.0)
                            .with_feature("pigscript", ["a.pig", "d.pig"][((h >> 8) % 2) as usize])
                            .with_feature("duration", 400.0 + (h % 300) as f64),
                    ])
                    .expect("unjournaled append is infallible");
                }
                // Append a record carrying a brand-new feature: the batch
                // catalog differs, the rewrite watermark moves, and the
                // service must rebuild instead of splicing.
                3 => {
                    extra += 1;
                    service.append(vec![
                        ExecutionRecord::job(format!("appended_{extra}"))
                            .with_feature(format!("knob_{extra}"), (h % 10) as f64)
                            .with_feature("duration", 500.0),
                    ])
                    .expect("unjournaled append is infallible");
                }
                // Non-append mutation: unconditional eviction path.
                4 => service.with_log_mut(|log| {
                    extra += 1;
                    log.push(
                        ExecutionRecord::job(format!("pushed_{extra}"))
                            .with_feature("inputsize", 4.0e9)
                            .with_feature("duration", 700.0),
                    );
                    log.rebuild_catalogs();
                }),
                // Fold every cached tail into its base; content-neutral.
                5 => {
                    service.compact_views();
                }
                // Query: the served answer must match a stateless engine
                // over a snapshot of the current log.
                _ => {
                    let query = queries[(seed as usize + step) % queries.len()].clone();
                    let bound = BoundQuery::new(query, "job_0", "job_1");
                    let served = service.explain(&QueryRequest::bound(bound.clone()));
                    let fresh = engine.explain(&service.snapshot(), &bound);
                    match (&served, &fresh) {
                        (Ok(outcome), Ok(explanation)) => {
                            prop_assert_eq!(&outcome.explanation, explanation);
                        }
                        (Err(a), Err(b)) => prop_assert_eq!(a, b),
                        other => prop_assert!(false, "service/fresh divergence: {:?}", other),
                    }
                }
            }
            // After every step, the view the service would serve is
            // bit-identical to encoding the current log from scratch.
            let snapshot = service.snapshot();
            let served = service.view(ExecutionKind::Job);
            let rebuilt = ColumnarLog::build_sharded(&snapshot, ExecutionKind::Job, shards);
            prop_assert_eq!(
                &*served, &rebuilt,
                "served view diverges from a from-scratch rebuild at step {}", step
            );
        }
    }

    /// The sharded parallel encode produces a view bit-identical to the
    /// single-shot build for arbitrary logs and shard counts — including
    /// s = 1, s > n, and logs whose shards have disjoint dictionaries.
    #[test]
    fn sharded_build_is_bit_identical_to_the_single_shot_build(
        seed in 0u64..300,
        shards in 1usize..24,
    ) {
        use perfxplain_core::columnar::ColumnarLog;
        use perfxplain::ExecutionKind;

        let log = random_log(seed);
        let single = ColumnarLog::build(&log, ExecutionKind::Job);
        let sharded = ColumnarLog::build_sharded(&log, ExecutionKind::Job, shards);
        prop_assert_eq!(&sharded, &single);
        prop_assert_eq!(
            ColumnarLog::build_auto(&log, ExecutionKind::Job),
            single
        );

        // A log where every record carries a shard-unique nominal value:
        // every pair of shards has disjoint dictionary entries to merge.
        let mut disjoint = log.clone();
        let mut tagged = ExecutionLog::new();
        for (i, record) in disjoint.records().iter().enumerate() {
            let mut record = record.clone();
            record.set_feature("jobtag", format!("tag_{i}"));
            tagged.push(record);
        }
        disjoint = tagged;
        disjoint.rebuild_catalogs();
        prop_assert_eq!(
            ColumnarLog::build_sharded(&disjoint, ExecutionKind::Job, shards),
            ColumnarLog::build(&disjoint, ExecutionKind::Job)
        );
    }

    /// Sharded ingestion (`from_shards` over per-batch logs) equals pushing
    /// every record serially and rebuilding the catalogs.
    #[test]
    fn sharded_ingestion_equals_the_serial_ingest(
        seed in 0u64..300,
        shards in 1usize..10,
    ) {
        let log = random_log(seed);
        let records: Vec<ExecutionRecord> = log.records().to_vec();
        let chunk_size = records.len().div_ceil(shards).max(1);

        let shard_logs: Vec<ExecutionLog> = records
            .chunks(chunk_size)
            .map(|chunk| {
                let mut shard = ExecutionLog::new();
                for record in chunk {
                    shard.push(record.clone());
                }
                shard.rebuild_catalogs();
                shard
            })
            .collect();
        prop_assert_eq!(&ExecutionLog::from_shards(shard_logs), &log);

        let mut parallel = ExecutionLog::new();
        parallel.extend_parallel(
            records.chunks(chunk_size).map(<[ExecutionRecord]>::to_vec).collect(),
        );
        prop_assert_eq!(&parallel, &log);
    }

    /// The encoded end-to-end engine produces explanations identical to the
    /// legacy map-based clause generation.
    #[test]
    fn encoded_explanations_match_the_map_based_path(seed in 0u64..200) {
        let log = random_log(seed);
        let config = uncapped_config();
        let engine = perfxplain::PerfXplain::new(config.clone());
        for query in query_pool() {
            let bound = BoundQuery::new(query, "job_0", "job_1");
            let Ok(poi) = bound.verify_preconditions(&log, config.sim_threshold) else {
                continue;
            };
            let Ok(set) = perfxplain::prepare_training_set(&log, &bound, &config) else {
                continue;
            };
            let new_path = engine.explain(&log, &bound).unwrap();
            let legacy = engine.because_from_training(&set, &poi, &log, &bound);
            prop_assert_eq!(
                new_path.because, legacy,
                "because clause diverges for seed {}", seed
            );
            let new_despite = engine.generate_despite(&log, &bound).unwrap();
            let legacy_despite = engine.despite_from_training(&set, &poi, &log, &bound);
            prop_assert_eq!(new_despite, legacy_despite);
        }
    }
}

// ---------------------------------------------------------------------------
// Sweep split finder ≡ naive oracle, and trainer-rewrite invariance
// ---------------------------------------------------------------------------

use perfxplain::mlcore::{
    best_split, best_split_for_attribute, best_split_for_attribute_filtered, percentile_ranks,
    relief_weights, AttrValue, Attribute, Dataset, ReliefConfig, SplitCandidate,
};
use perfxplain_core::bridge::DatasetBridge;

/// SplitMix64 — the deterministic cell/label derivation behind the random
/// datasets below.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An adversarial dataset for the split search: numeric/nominal mix, missing
/// cells, NaN, ±infinity, schema-drift cells, heavy value ties, and values
/// within the equality tolerance of each other (negative zero, adjacent
/// representable doubles, sub-epsilon magnitudes) — everything that makes
/// the sweep's prefix/band bookkeeping earn its keep.  Returns the dataset
/// plus a derived pair-of-interest row for applicability filters.
fn build_split_dataset(
    schema_seed: u64,
    num_attrs: usize,
    row_seeds: &[u64],
    poi_seed: u64,
) -> (Dataset, Vec<AttrValue>) {
    let pool = [
        0.0,
        -0.0,
        1.0,
        1.0 + f64::EPSILON,
        1.5,
        -2.0,
        1.0e9,
        1.0e-17,
        2.0e-17,
        -1.0e-17,
        600.0,
        5.0,
    ];
    let numeric = |a: usize| (schema_seed >> a) & 1 == 0;
    let attributes = (0..num_attrs)
        .map(|a| {
            if numeric(a) {
                Attribute::numeric(format!("n{a}"))
            } else {
                Attribute::nominal(format!("c{a}"))
            }
        })
        .collect();
    let mut dataset = Dataset::new(attributes);
    for a in 0..num_attrs {
        if !numeric(a) {
            for v in 0..4 {
                dataset.attribute_mut(a).dictionary.intern(&format!("v{v}"));
            }
        }
    }
    let cell = |h: u64, numeric: bool| -> AttrValue {
        if numeric {
            match h % 16 {
                0 | 1 => AttrValue::Missing,
                2 => AttrValue::Num(f64::NAN),
                3 => AttrValue::Num(f64::INFINITY),
                4 => AttrValue::Num(f64::NEG_INFINITY),
                5 => AttrValue::Nom(0), // schema drift: nominal cell in a numeric column
                _ => AttrValue::Num(pool[(h >> 8) as usize % pool.len()]),
            }
        } else {
            match h % 8 {
                0 => AttrValue::Missing,
                1 => AttrValue::Num(2.5), // schema drift: numeric cell in a nominal column
                _ => AttrValue::Nom((h >> 8) as u32 % 4),
            }
        }
    };
    for &seed in row_seeds {
        let row: Vec<AttrValue> = (0..num_attrs)
            .map(|a| cell(splitmix(seed.wrapping_add(a as u64)), numeric(a)))
            .collect();
        dataset.push(row, splitmix(seed ^ 0xAB) & 1 == 0);
    }
    let poi: Vec<AttrValue> = (0..num_attrs)
        .map(|a| cell(splitmix(poi_seed.wrapping_add(a as u64)), numeric(a)))
        .collect();
    (dataset, poi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sweep-based split finder returns a `SplitCandidate` identical —
    /// atom, gain, inside/outside counts, tie-breaks included — to the
    /// retained naive oracle, unfiltered and under the applicability
    /// filter, over full and subset index lists; the parallel
    /// all-attributes search matches the oracle's serial fold.
    #[test]
    fn sweep_split_finder_matches_the_naive_oracle(
        schema_seed in any::<u64>(),
        num_attrs in 1usize..4,
        row_seeds in proptest::collection::vec(any::<u64>(), 2..60),
        poi_seed in any::<u64>(),
    ) {
        let (dataset, poi) =
            build_split_dataset(schema_seed, num_attrs, &row_seeds, poi_seed);
        let all: Vec<usize> = (0..dataset.len()).collect();
        let subset: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| !splitmix(poi_seed ^ (i as u64)).is_multiple_of(3))
            .collect();
        for indices in [&all, &subset] {
            for (attribute, &poi_value) in poi.iter().enumerate() {
                prop_assert_eq!(
                    best_split_for_attribute(&dataset, indices, attribute),
                    mlcore::oracle::best_split_for_attribute(&dataset, indices, attribute),
                    "unfiltered attribute {} diverged", attribute
                );
                let sweep = best_split_for_attribute_filtered(
                    &dataset, indices, attribute,
                    |atom| atom.matches_value(poi_value),
                );
                let naive = mlcore::oracle::best_split_for_attribute_filtered(
                    &dataset, indices, attribute,
                    |atom| atom.matches_value(poi_value),
                );
                prop_assert_eq!(sweep, naive, "filtered attribute {} diverged", attribute);
            }
            prop_assert_eq!(
                best_split(&dataset, indices),
                mlcore::oracle::best_split(&dataset, indices),
            );
        }
    }

    /// The columnar, fanned-out Relief returns weights bit-identical to the
    /// retained row-at-a-time oracle on the same adversarial datasets.
    #[test]
    fn columnar_relief_matches_the_naive_oracle(
        schema_seed in any::<u64>(),
        num_attrs in 1usize..4,
        row_seeds in proptest::collection::vec(any::<u64>(), 2..60),
        iterations in 1usize..40,
    ) {
        let (dataset, _) = build_split_dataset(schema_seed, num_attrs, &row_seeds, 7);
        let config = ReliefConfig { iterations, seed: schema_seed };
        prop_assert_eq!(
            relief_weights(&dataset, config),
            mlcore::oracle::relief_weights(&dataset, config),
        );
    }
}

/// The greedy clause loop of Algorithm 1, reimplemented against the *naive*
/// split oracle: what `PerfXplain` produced before the sweep rewrite.
fn oracle_because_clause(
    bridge: &DatasetBridge,
    config: &ExplainConfig,
    width: usize,
) -> Predicate {
    let dataset = bridge.dataset();
    if dataset.is_empty() || width == 0 {
        return Predicate::always_true();
    }
    let mut atoms: Vec<Atom> = Vec::new();
    let mut current: Vec<usize> = (0..dataset.len()).collect();
    for _ in 0..width {
        if current.is_empty() {
            break;
        }
        let mut candidates: Vec<(usize, SplitCandidate)> = Vec::new();
        for attr in 0..bridge.num_attributes() {
            let poi_value = bridge.poi_value(attr);
            if poi_value.is_missing() || atoms.iter().any(|a| a.feature == bridge.attr_name(attr)) {
                continue;
            }
            if let Some(candidate) =
                mlcore::oracle::best_split_for_attribute_filtered(dataset, &current, attr, |atom| {
                    atom.matches_value(poi_value)
                })
            {
                candidates.push((attr, candidate));
            }
        }
        if candidates.is_empty() {
            break;
        }
        let precisions: Vec<f64> = candidates
            .iter()
            .map(|(_, c)| {
                let total = c.inside.total() as f64;
                if total == 0.0 {
                    0.0
                } else {
                    c.inside.positive as f64 / total
                }
            })
            .collect();
        let generalities: Vec<f64> = candidates
            .iter()
            .map(|(_, c)| c.inside.total() as f64 / current.len() as f64)
            .collect();
        let (precision_scores, generality_scores) = if config.normalize_scores {
            (
                percentile_ranks(&precisions),
                percentile_ranks(&generalities),
            )
        } else {
            (precisions.clone(), generalities.clone())
        };
        let w = config.precision_weight;
        let mut best_index = 0usize;
        let mut best_score = f64::MIN;
        for i in 0..candidates.len() {
            let score = w * precision_scores[i] + (1.0 - w) * generality_scores[i];
            let better = score > best_score + 1e-12
                || ((score - best_score).abs() <= 1e-12 && precisions[i] > precisions[best_index]);
            if better {
                best_score = score;
                best_index = i;
            }
        }
        let (_, winner) = &candidates[best_index];
        let atom = bridge.atom_to_pxql(&winner.atom);
        current.retain(|&row| winner.atom.matches_row(dataset, row));
        atoms.push(atom);
    }
    Predicate::from_atoms(atoms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// End to end: `PerfXplain::explain` over random logs and structurally
    /// different queries produces exactly the explanation the pre-sweep
    /// trainer produced (the greedy loop re-run against the naive oracle).
    #[test]
    fn explain_output_is_unchanged_by_the_sweep_trainer(seed in 0u64..200) {
        use perfxplain_core::pairs::PairCatalog;

        let log = random_log(seed);
        let config = uncapped_config();
        let engine = perfxplain::PerfXplain::new(config.clone());
        for query in query_pool() {
            let bound = BoundQuery::new(query, "job_0", "job_1");
            if bound.verify_preconditions(&log, config.sim_threshold).is_err() {
                continue;
            }
            let Ok(encoded) =
                perfxplain_core::training::prepare_encoded_training(&log, &bound, &config)
            else {
                continue;
            };
            let catalog = PairCatalog::from_raw(log.job_catalog())
                .restrict_to_groups(config.feature_level.allowed_groups());
            let excluded = perfxplain_core::query::excluded_raw_features(&bound, &config);
            let poi_rows = encoded.poi_rows(&bound).expect("poi rows exist");
            let bridge = DatasetBridge::encode_from_view(
                &encoded, poi_rows, &catalog, &excluded, config.sim_threshold,
            );
            let expected = perfxplain::Explanation::because_only(
                oracle_because_clause(&bridge, &config, config.width),
            );
            let actual = engine.explain(&log, &bound).unwrap();
            prop_assert_eq!(actual, expected, "explanation diverged for seed {}", seed);
        }
    }
}

/// Regression: a single NaN feature cell used to panic the split search
/// (`sort_by(..).expect("NaN feature value")`) and therefore the whole
/// service.  NaN now behaves exactly like a missing value everywhere in the
/// trainers.
#[test]
fn nan_feature_values_do_not_panic_the_pipeline() {
    let clean = random_log(3);
    let mut log = ExecutionLog::new();
    for (i, record) in clean.records().iter().enumerate() {
        let mut record = record.clone();
        if i % 3 == 0 {
            record.set_feature("iosortfactor", f64::NAN);
        }
        if i % 4 == 0 {
            record.set_feature("duration", f64::NAN);
        }
        log.push(record);
    }
    log.rebuild_catalogs();

    let config = uncapped_config();
    let engine = perfxplain::PerfXplain::new(config.clone());
    for query in query_pool() {
        let bound = BoundQuery::new(query, "job_1", "job_2");
        // Ok or a typed error — never a panic.
        let _ = engine.explain(&log, &bound);
        let _ = perfxplain::RuleOfThumb::new(config.clone()).explain(&log, &bound);
    }

    // The mlcore trainers treat the NaN cells exactly like Missing ones.
    let mut with_nan = Dataset::new(vec![Attribute::numeric("x")]);
    let mut with_missing = Dataset::new(vec![Attribute::numeric("x")]);
    for i in 0..20 {
        let label = i % 2 == 0;
        if i % 5 == 0 {
            with_nan.push(vec![AttrValue::Num(f64::NAN)], label);
            with_missing.push(vec![AttrValue::Missing], label);
        } else {
            with_nan.push(vec![AttrValue::Num(i as f64)], label);
            with_missing.push(vec![AttrValue::Num(i as f64)], label);
        }
    }
    let indices: Vec<usize> = (0..with_nan.len()).collect();
    assert_eq!(
        best_split_for_attribute(&with_nan, &indices, 0),
        best_split_for_attribute(&with_missing, &indices, 0),
    );
    assert_eq!(
        relief_weights(&with_nan, ReliefConfig::default()),
        relief_weights(&with_missing, ReliefConfig::default()),
    );
}

// ---------------------------------------------------------------------------
// Snapshot-store equivalence properties
// ---------------------------------------------------------------------------

/// [`random_log`] plus task records, so both execution kinds exercise the
/// snapshot round trip.
fn random_mixed_log(seed: u64) -> ExecutionLog {
    let mut log = random_log(seed);
    let jobs: Vec<String> = log.jobs().map(|j| j.id.clone()).collect();
    for (i, job_id) in jobs.iter().enumerate() {
        if i % 3 == 0 {
            log.push(
                ExecutionRecord::task(format!("task_{i}"), job_id.clone())
                    .with_feature("tasktype", if i % 2 == 0 { "MAP" } else { "REDUCE" })
                    .with_feature("duration", 5.0 + i as f64),
            );
        }
    }
    log.rebuild_catalogs();
    log
}

/// A per-case scratch directory under the system temp dir.
fn snapshot_dir(tag: &str, a: u64, b: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pxsnap_prop_{}_{tag}_{a}_{b}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `ColumnarLog::build_from_snapshot(persist(log))` is bit-identical to
    /// `ColumnarLog::build_sharded(log, ..)` for arbitrary logs and shard
    /// counts, for both execution kinds, and the reopened log equals the
    /// original.
    #[test]
    fn snapshot_views_are_bit_identical_to_the_sharded_build(
        seed in 0u64..150,
        shards in 1usize..12,
    ) {
        use perfxplain::snapshot;
        use perfxplain::ExecutionKind;
        use perfxplain_core::columnar::ColumnarLog;

        let log = random_mixed_log(seed);
        let dir = snapshot_dir("views", seed, shards);
        snapshot::persist(&log, &dir, shards).unwrap();
        let snap = snapshot::open(&dir).unwrap();

        prop_assert_eq!(&snap.to_log(), &log);
        for kind in [ExecutionKind::Job, ExecutionKind::Task] {
            let from_snapshot = ColumnarLog::build_from_snapshot(&snap, kind);
            prop_assert_eq!(&from_snapshot, &ColumnarLog::build_sharded(&log, kind, shards));
            prop_assert_eq!(&from_snapshot, &ColumnarLog::build(&log, kind));
        }

        // The consuming zero-copy path (columns adopted straight from the
        // decoded segments) produces the same log and the same views as the
        // borrowing rebuild above.
        let views = snapshot::open(&dir).unwrap().into_views();
        prop_assert_eq!(&views.log, &log);
        prop_assert_eq!(&views.job, &ColumnarLog::build(&log, ExecutionKind::Job));
        prop_assert_eq!(&views.task, &ColumnarLog::build(&log, ExecutionKind::Task));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Incremental re-ingest with one dirty shard re-encodes exactly one
    /// segment; every other shard is served from disk, with its manifest
    /// entry — content fingerprint included — carried forward bit-for-bit.
    /// The synced snapshot equals a from-scratch serial ingest of the
    /// mutated records.
    #[test]
    fn incremental_sync_reencodes_exactly_the_dirty_shard(
        seed in 0u64..100,
        shard_count in 2usize..6,
        dirty_pick in 0usize..64,
    ) {
        use perfxplain::snapshot::{self, RecordShard, ShardInput};
        use perfxplain::ExecutionKind;
        use perfxplain_core::columnar::ColumnarLog;

        let log = random_mixed_log(seed);
        let records = log.records().to_vec();
        let chunk_size = records.len().div_ceil(shard_count).max(1);
        let chunks: Vec<Vec<ExecutionRecord>> =
            records.chunks(chunk_size).map(<[_]>::to_vec).collect();
        let dirty = dirty_pick % chunks.len();

        let dir = snapshot_dir("sync", seed, shard_count * 100 + dirty);
        let shards: Vec<RecordShard> = chunks
            .iter()
            .enumerate()
            .map(|(i, records)| RecordShard {
                records: records.clone(),
                source_fingerprint: Some(10_000 + i as u64),
            })
            .collect();
        snapshot::persist_shards(&dir, shards).unwrap();
        let before = perfxplain::SnapshotManifest::load(&dir).unwrap();

        // Mutate one numeric feature in the dirty shard: the catalogs stay
        // stable, so nothing else may re-encode.
        let mut mutated = chunks.clone();
        mutated[dirty][0].set_feature("duration", 123_456.0);
        let inputs: Vec<ShardInput> = mutated
            .iter()
            .enumerate()
            .map(|(i, records)| {
                if i == dirty {
                    ShardInput::Fresh(RecordShard {
                        records: records.clone(),
                        source_fingerprint: Some(777),
                    })
                } else {
                    ShardInput::Unchanged { source_fingerprint: 10_000 + i as u64 }
                }
            })
            .collect();
        let report = snapshot::sync(&dir, inputs).unwrap();
        prop_assert_eq!(report.shards_encoded, 1);
        prop_assert_eq!(report.shards_reused, chunks.len() - 1);
        prop_assert!(!report.catalog_changed);
        for (i, (old_entry, new_entry)) in
            before.shards.iter().zip(&report.manifest.shards).enumerate()
        {
            if i != dirty {
                prop_assert_eq!(old_entry, new_entry, "clean shard {} was touched", i);
            } else {
                prop_assert_eq!(new_entry.source_fingerprint, Some(777));
            }
        }

        // Equivalence with a from-scratch serial ingest of the mutated
        // records.
        let mut expected = ExecutionLog::new();
        for record in mutated.iter().flatten() {
            expected.push(record.clone());
        }
        expected.rebuild_catalogs();
        let snap = snapshot::open(&dir).unwrap();
        prop_assert_eq!(&snap.to_log(), &expected);
        for kind in [ExecutionKind::Job, ExecutionKind::Task] {
            prop_assert_eq!(
                ColumnarLog::build_from_snapshot(&snap, kind),
                ColumnarLog::build(&expected, kind)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Segment codec round trips (bit-exact)
// ---------------------------------------------------------------------------

/// Adversarial numeric payloads for the v2 stream codec: non-finite values
/// and signed zero (must force the raw fallback), extreme magnitudes (must
/// not overflow the frame-of-reference / delta arithmetic), small integral
/// values (eligible for bit-packing) and arbitrary doubles.
fn arb_adversarial_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(f64::MIN_POSITIVE),
        Just(42.0f64),
        any::<f64>(),
        any::<u32>().prop_map(|v| f64::from(v) - f64::from(u32::MAX / 2)),
    ]
}

/// One adversarial cell for a column whose nominal dictionary has
/// `dict_len` entries (`dict_len == 0` means the column is purely numeric).
fn arb_adversarial_cell(dict_len: u32) -> BoxedStrategy<perfxplain::mlcore::AttrValue> {
    use perfxplain::mlcore::AttrValue;
    if dict_len == 0 {
        prop_oneof![
            Just(AttrValue::Missing),
            arb_adversarial_f64().prop_map(AttrValue::Num),
        ]
        .boxed()
    } else {
        prop_oneof![
            Just(AttrValue::Missing),
            arb_adversarial_f64().prop_map(AttrValue::Num),
            (0u32..dict_len).prop_map(AttrValue::Nom),
        ]
        .boxed()
    }
}

/// Bitwise equality for cells: `Num` payloads compare by their IEEE-754
/// representation, so NaN == NaN and -0.0 != +0.0.
fn cells_bit_equal(a: &perfxplain::mlcore::AttrValue, b: &perfxplain::mlcore::AttrValue) -> bool {
    use perfxplain::mlcore::AttrValue;
    match (a, b) {
        (AttrValue::Missing, AttrValue::Missing) => true,
        (AttrValue::Num(x), AttrValue::Num(y)) => x.to_bits() == y.to_bits(),
        (AttrValue::Nom(x), AttrValue::Nom(y)) => x == y,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit-packing at every width (0..=64) is the identity on values that
    /// fit the width — including the empty slice and a single value.
    #[test]
    fn packed_bits_round_trip_at_every_width(
        width in 0u32..65,
        raw in proptest::collection::vec(any::<u64>(), 0..50),
    ) {
        use perfxplain::mlcore::{ByteReader, ByteWriter};

        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let values: Vec<u64> = raw.iter().map(|v| v & mask).collect();
        let mut writer = ByteWriter::new();
        writer.put_packed(&values, width);
        let mut reader = ByteReader::new(writer.as_bytes());
        let decoded = reader.get_packed(values.len(), width).unwrap();
        prop_assert_eq!(decoded, values);
        prop_assert!(reader.is_exhausted());
    }

    /// The numeric stream codec (raw / frame-of-reference / delta, chosen
    /// per stream) is bit-exact over adversarial inputs: NaN payloads,
    /// infinities, signed zero and extreme magnitudes all survive.
    #[test]
    fn f64_stream_round_trips_bit_exactly(
        values in proptest::collection::vec(arb_adversarial_f64(), 0..60),
    ) {
        use perfxplain::mlcore::{decode_f64_stream, encode_f64_stream, ByteReader, ByteWriter};

        let mut writer = ByteWriter::new();
        encode_f64_stream(&mut writer, &values);
        let mut reader = ByteReader::new(writer.as_bytes());
        let decoded = decode_f64_stream(&mut reader, values.len()).unwrap();
        prop_assert_eq!(decoded.len(), values.len());
        for (got, want) in decoded.iter().zip(&values) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
        prop_assert!(reader.is_exhausted());
    }

    /// The whole v2 column-segment format is the identity on adversarial
    /// stores: dictionary-of-1 nominals (zero-bit packing), mixed
    /// numeric/nominal columns, all-missing columns, zero-row stores, and
    /// every pathological double.
    #[test]
    fn column_segments_round_trip_bit_exactly(
        dict_len in 1u32..4,
        rows in 0usize..40,
        cell_seed in any::<u64>(),
    ) {
        use perfxplain::mlcore::{Attribute, ByteReader, ByteWriter, ColumnStore};

        let mut nominal = Attribute::nominal("script");
        for i in 0..dict_len {
            nominal.dictionary.intern(&format!("script_{i}.pig"));
        }
        let attributes = vec![
            Attribute::numeric("metric"),
            nominal,
            Attribute::numeric("all_missing"),
        ];

        // Deterministically sample one cell strategy per (column, row) from
        // the seed, so the store is reproducible from the proptest case.
        let mut rng = proptest::test_rng(cell_seed);
        let numeric_cells = arb_adversarial_cell(0);
        let nominal_cells = arb_adversarial_cell(dict_len);
        let columns: Vec<Vec<perfxplain::mlcore::AttrValue>> = vec![
            (0..rows).map(|_| numeric_cells.generate(&mut rng)).collect(),
            (0..rows).map(|_| nominal_cells.generate(&mut rng)).collect(),
            vec![perfxplain::mlcore::AttrValue::Missing; rows],
        ];
        let store = ColumnStore::from_columns(attributes, columns);

        let mut writer = ByteWriter::new();
        store.encode_binary(&mut writer);
        let mut reader = ByteReader::new(writer.as_bytes());
        let decoded = ColumnStore::decode_binary(&mut reader).unwrap();
        prop_assert!(reader.is_exhausted());

        prop_assert_eq!(decoded.num_rows(), store.num_rows());
        prop_assert_eq!(decoded.num_columns(), store.num_columns());
        prop_assert_eq!(decoded.attributes(), store.attributes());
        for col in 0..store.num_columns() {
            for row in 0..store.num_rows() {
                let (want, got) = (store.value(row, col), decoded.value(row, col));
                prop_assert!(
                    cells_bit_equal(&want, &got),
                    "cell ({}, {}) decoded as {:?}, expected {:?}",
                    row, col, got, want
                );
            }
        }
    }
}
