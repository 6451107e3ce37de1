//! Scenario-fidelity tests: the matchers recover the ground-truth
//! correspondences of the paper's scenario, the format transformations
//! survive the pipeline, and the feedback oracle agrees with the scoring.

use vada::Wrangler;
use vada_extract::sources::{source_attrs, target_schema};
use vada_extract::{Oracle, Scenario, ScenarioConfig, UniverseConfig};
use vada_kb::{ContextKind, Verdict};

fn scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 80, seed: 17 },
        ..Default::default()
    })
}

/// The true correspondences for the varied-name source.
fn ground_truth_matches() -> Vec<(&'static str, &'static str)> {
    vec![
        ("asking_price", "price"),
        ("street_name", "street"),
        ("post_code", "postcode"),
        ("beds", "bedrooms"),
        ("property_type", "type"),
        ("details", "description"),
    ]
}

#[test]
fn schema_matching_recovers_varied_names() {
    let s = scenario();
    let mut w = Wrangler::new();
    w.add_source(s.onthemarket.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap");
    for (src, tgt) in ground_truth_matches() {
        let best = w
            .kb()
            .matches()
            .filter(|m| m.src_rel == "onthemarket" && m.src_attr == src)
            .max_by(|a, b| a.score.total_cmp(&b.score));
        let best = best.unwrap_or_else(|| panic!("no match at all for {src}"));
        assert_eq!(
            best.tgt_attr, tgt,
            "best match for onthemarket.{src} should be {tgt}, got {} ({:.2})",
            best.tgt_attr, best.score
        );
    }
}

#[test]
fn source_attr_fixture_is_consistent() {
    let (rm, otm) = source_attrs(true);
    assert_eq!(rm.len(), otm.len());
    let (rm2, otm2) = source_attrs(false);
    assert_eq!(rm2, otm2);
}

#[test]
fn price_formats_are_normalised_in_the_result() {
    let s = scenario();
    let mut w = Wrangler::new();
    w.add_source(s.rightmove.clone());
    w.add_source(s.onthemarket.clone());
    w.add_source(s.deprivation.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap");
    let result = w.result().expect("result");
    let idx = result.schema().index_of("price").expect("price attr");
    for t in result.iter() {
        if let Some(s) = t[idx].as_str() {
            panic!("price survived as string: {s:?}");
        }
    }
    // the sources definitely contained pretty-printed prices
    let pretty_inputs = s
        .rightmove
        .iter()
        .chain(s.onthemarket.iter())
        .filter(|t| t[0].as_str().is_some_and(|v| v.starts_with('£')))
        .count();
    assert!(pretty_inputs > 0, "scenario must exercise format drift");
}

#[test]
fn oracle_and_scorer_agree() {
    let s = scenario();
    let mut w = Wrangler::new();
    w.add_source(s.rightmove.clone());
    w.add_source(s.onthemarket.clone());
    w.add_source(s.deprivation.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap");
    w.add_data_context(
        s.address.clone(),
        ContextKind::Reference,
        &[("street", "street"), ("postcode", "postcode")],
    )
    .expect("context registers");
    w.run().expect("context step");
    let result = w.result().expect("result").clone();

    // annotate everything; the fraction of Correct verdicts must track the
    // scorer's cell precision on aligned rows
    let mut oracle = Oracle::new(&s.universe);
    let all = oracle.annotate(&result, usize::MAX, 1);
    let attr_verdicts: Vec<_> = all
        .iter()
        .filter(|f| matches!(f.target, vada_kb::FeedbackTarget::Attribute { .. }))
        .collect();
    assert!(!attr_verdicts.is_empty());
    let correct = attr_verdicts
        .iter()
        .filter(|f| f.verdict == Verdict::Correct)
        .count();
    let oracle_precision = correct as f64 / attr_verdicts.len() as f64;
    let scored = vada_extract::score_result(&s.universe, &result);
    assert!(
        (oracle_precision - scored.precision).abs() < 0.05,
        "oracle precision {oracle_precision:.3} vs scorer {:.3}",
        scored.precision
    );
}

#[test]
fn deprivation_coverage_bounds_crimerank_completeness() {
    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 80, seed: 18 },
        deprivation_coverage: 0.5,
        ..Default::default()
    });
    let mut w = Wrangler::new();
    w.add_source(s.rightmove.clone());
    w.add_source(s.onthemarket.clone());
    w.add_source(s.deprivation.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap");
    let result = w.result().expect("result");
    let completeness = result.completeness("crimerank").expect("attr exists");
    let covered_districts = s.deprivation.len() as f64;
    let all_districts = s.universe.crime_by_district.len() as f64;
    let coverage = covered_districts / all_districts;
    assert!(
        completeness <= coverage + 0.15,
        "crimerank completeness {completeness:.3} cannot materially exceed district coverage {coverage:.3}"
    );
}

/// The resolve-and-repair stages pinned at scale: instance matching,
/// blocking, clustering, the three survivorship rules, CFD learning,
/// violation detection and reference repair over a seeded 1 500-property
/// scenario with a fifth of the listings duplicated. Each stage's output is
/// rendered canonically (values tagged by type, floats by bit pattern) and
/// digested with FNV-1a — not `DefaultHasher`, which may change between
/// toolchains. The constants were taken at the commit before fusion and
/// quality were rewritten to read each value once, so any rewrite of these
/// layers (or of the parallel scheduler under them) answers to a fixed
/// output rather than to its own previous run.
#[test]
fn resolve_and_repair_stage_outputs_are_pinned_at_scale() {
    use std::fmt::Write as _;

    use vada_common::{Relation, Tuple, Value};
    use vada_extract::errors::parse_price;
    use vada_fusion::{
        block_by_keys, cluster_relation, fuse_clusters, ClusterConfig, FieldKind, FieldSpec,
        Survivorship,
    };
    use vada_match::{instance_match, ContextColumn, InstanceMatchConfig};
    use vada_quality::{
        detect_violations, learn_cfds, repair_with_reference, CfdLearnConfig, RepairConfig,
    };

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    fn render_value(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push('~'),
            Value::Bool(b) => write!(out, "b{b}").unwrap(),
            Value::Int(i) => write!(out, "i{i}").unwrap(),
            Value::Float(f) => write!(out, "f{:016x}", f.to_bits()).unwrap(),
            Value::Str(s) => write!(out, "s{}:{s}", s.len()).unwrap(),
        }
    }
    fn render_relation(rel: &Relation) -> String {
        let mut out = String::new();
        for t in rel.iter() {
            for v in t.iter() {
                render_value(v, &mut out);
                out.push('\t');
            }
            out.push('\n');
        }
        out
    }
    fn render_groups(groups: &[Vec<usize>]) -> String {
        let mut out = String::new();
        for g in groups {
            for r in g {
                write!(out, "{r} ").unwrap();
            }
            out.push('\n');
        }
        out
    }
    /// A source projected onto the target schema the way a bootstrap
    /// mapping does: `bedrooms` and `price` read as integers where they
    /// parse, `crimerank` left empty.
    fn project(source: &Relation, attrs: &[&str], out: &mut Relation) {
        // attrs order: price, street, postcode, bedrooms, type, description
        let col: Vec<usize> =
            attrs.iter().map(|a| source.schema().require(a).expect("source attr")).collect();
        let int = |v: &Value, parse: fn(&str) -> Option<i64>| match v {
            Value::Null => Value::Null,
            v => parse(&v.to_string()).map_or(Value::Null, Value::Int),
        };
        for t in source.iter() {
            out.push(Tuple::new(vec![
                t[col[4]].clone(),
                t[col[5]].clone(),
                t[col[1]].clone(),
                t[col[2]].clone(),
                int(&t[col[3]], |s| s.trim().parse().ok()),
                int(&t[col[0]], parse_price),
                Value::Null,
            ]))
            .expect("target arity");
        }
    }

    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 1_500, seed: 20 },
        duplicate_rate: 0.2,
        seed: 21,
        ..Default::default()
    });
    let (rightmove, onthemarket) = source_attrs(s.config.varied_attribute_names);
    let mut dirty = Relation::empty(target_schema());
    project(&s.rightmove, &rightmove, &mut dirty);
    project(&s.onthemarket, &onthemarket, &mut dirty);

    let mut digests: Vec<(&str, u64)> = Vec::new();

    // match: both sources against the address list's instances
    let context: Vec<ContextColumn> = ["street", "postcode"]
        .iter()
        .map(|a| ContextColumn::from_relation(&s.address, a, a))
        .collect();
    let mut rendered = String::new();
    for src in [&s.rightmove, &s.onthemarket] {
        for c in instance_match(&InstanceMatchConfig::default(), src, &context) {
            writeln!(
                rendered,
                "{}.{} -> {} {:016x} {}",
                c.src_rel,
                c.src_attr,
                c.tgt_attr,
                c.score.to_bits(),
                c.evidence
            )
            .unwrap();
        }
    }
    digests.push(("match", fnv1a(&rendered)));

    // block → cluster, the pipeline's duplicate-detection set-up
    let blocks = block_by_keys(&dirty, &["postcode"]).expect("blocks");
    digests.push(("block", fnv1a(&render_groups(&blocks))));
    let fields = dirty
        .schema()
        .attributes()
        .iter()
        .enumerate()
        .filter_map(|(col, a)| {
            let (weight, kind) = match (a.name.as_str(), a.ty) {
                ("description", _) => return None,
                ("postcode", _) => (2.0, FieldKind::Exact),
                ("street", _) => (3.0, FieldKind::Text),
                (_, vada_common::AttrType::Int | vada_common::AttrType::Float) => {
                    (1.0, FieldKind::Numeric)
                }
                _ => (1.0, FieldKind::Text),
            };
            Some(FieldSpec { col, weight, kind })
        })
        .collect();
    let cfg = ClusterConfig { block_keys: vec!["postcode".into()], fields, threshold: 0.88 };
    let clusters = cluster_relation(&cfg, &dirty).expect("clusters");
    digests.push(("cluster", fnv1a(&render_groups(&clusters))));

    // fuse, all three survivorship rules
    let trust: Vec<f64> = (0..dirty.len()).map(|r| ((r * 7) % 11) as f64 / 10.0).collect();
    let mut fused_majority = None;
    for (name, rule, trust) in [
        ("fuse.most_complete", Survivorship::MostComplete, None),
        ("fuse.majority", Survivorship::Majority, None),
        ("fuse.trust_weighted", Survivorship::TrustWeighted, Some(trust.as_slice())),
    ] {
        let (fused, report) = fuse_clusters(&dirty, &clusters, rule, trust).expect("fusion");
        let rendered = format!(
            "{}{} {} {}\n",
            render_relation(&fused),
            report.input_rows,
            report.output_rows,
            report.merged_clusters
        );
        digests.push((name, fnv1a(&rendered)));
        if rule == Survivorship::Majority {
            fused_majority = Some(fused);
        }
    }
    let mut repaired = fused_majority.expect("majority ran");

    // learn → detect → repair against the address list
    let render_cfds = |cfds: &[vada_kb::CfdRule]| {
        cfds.iter().map(|c| format!("{} {}\n", c.display(), c.support)).collect::<String>()
    };
    let cfds = learn_cfds(&CfdLearnConfig::default(), &s.address);
    digests.push(("learn", fnv1a(&render_cfds(&cfds))));
    // the address list is three clean string columns; the fused listings
    // (seven columns, integers, nulls, typos) under looser thresholds give
    // the learner every rule shape, and the unfused rows then break them
    let loose = CfdLearnConfig {
        min_support: 2,
        min_pattern_support: 3,
        max_constant_cfds: 200,
        ..Default::default()
    };
    let listing_cfds = learn_cfds(&loose, &repaired);
    digests.push(("learn.listings", fnv1a(&render_cfds(&listing_cfds))));
    let mut rendered = String::new();
    for v in detect_violations(&dirty, &listing_cfds) {
        // the rule by its position in the learned list, the form the
        // digest was taken in
        let rule = listing_cfds.iter().position(|c| c.id == v.cfd_id).expect("known rule");
        writeln!(rendered, "rule {rule} {} {:?}", v.attr, v.rows).unwrap();
    }
    digests.push(("detect", fnv1a(&rendered)));
    let report = repair_with_reference(
        &RepairConfig::default(),
        &mut repaired,
        &cfds,
        &s.address,
        Some(("street", "postcode")),
    );
    let render_report = |r: &vada_quality::RepairReport| {
        format!("{} {} {} {} {}\n", r.cfd_fixes, r.null_fills, r.fuzzy_fixes, r.passes, r.converged)
    };
    let rendered = format!("{}{}", render_relation(&repaired), render_report(&report));
    digests.push(("repair", fnv1a(&rendered)));
    // `property` has no `city`, so no CFD lookup fires above; the address
    // list with every seventh city taken from its neighbour, repaired
    // against the true one, exercises them
    let mut skewed = s.address.clone();
    let city = skewed.schema().require("city").expect("address has a city");
    for row in (0..skewed.len()).step_by(7) {
        let moved = skewed.tuples()[(row + 1) % skewed.len()][city].clone();
        let t = skewed.tuples()[row].with_value(city, moved);
        skewed.replace(row, t).expect("same arity");
    }
    let report = repair_with_reference(
        &RepairConfig::default(),
        &mut skewed,
        &cfds,
        &s.address,
        Some(("street", "postcode")),
    );
    let rendered = format!("{}{}", render_relation(&skewed), render_report(&report));
    digests.push(("repair.lookup", fnv1a(&rendered)));

    let expected: [(&str, u64); 11] = [
        ("match", 0xa70100fdaff1e70e),
        ("block", 0xbd289d47b765e4ac),
        ("cluster", 0x1eddcc12c99fd972),
        ("fuse.most_complete", 0x3d49044a6895fc54),
        ("fuse.majority", 0x507f32ce119ef04e),
        ("fuse.trust_weighted", 0x23ee0db60d154427),
        ("learn", 0xc68cd93145af0ce2),
        ("learn.listings", 0x601fc2e98e03a8e5),
        ("detect", 0x8b61603afc7102d6),
        ("repair", 0x1ac5ca09718130d7),
        ("repair.lookup", 0x8e2a6ba10fe72020),
    ];
    let show = |d: &[(&str, u64)]| {
        d.iter().map(|(n, h)| format!("(\"{n}\", {h:#018x}),\n")).collect::<String>()
    };
    assert_eq!(show(&digests), show(&expected), "stage digests drifted; got:\n{}", show(&digests));
}
