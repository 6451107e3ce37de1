//! `resolve_repair`: entity resolution and repair by direct library calls
//! on the unfused, unrepaired `property` relation of a large scenario —
//! matching, then cluster → fuse → learn CFDs → repair. The mirror image of
//! `datalog_reason`: fusion, quality and match do all the work, datalog none.

use std::time::Instant;

use vada::vada_common::{Relation, Tuple, VadaError, Value};
use vada::vada_extract::errors::parse_price;
use vada::vada_extract::sources::{source_attrs, target_schema};
use vada::vada_extract::Scenario;
use vada::vada_fusion::{cluster_relation, fuse_clusters, Survivorship};
use vada::vada_match::ContextColumn;
use vada::vada_quality::{repair_with_reference, RepairConfig};

use super::replay::{
    cluster_config, derive_layer_metrics, replay_fusion, replay_matching, replay_quality,
};
use super::{scenario, Bench};

struct Setup {
    scenario: Scenario,
    /// Both sources projected to the target schema: duplicates within and
    /// across sources, defects as extracted.
    dirty: Relation,
    context: Vec<ContextColumn>,
}

/// Project a source to the target schema the way a bootstrap mapping does:
/// columns renamed, `price` and `bedrooms` read as integers where they
/// parse, `crimerank` left empty.
fn project(source: &Relation, attrs: &[&str], out: &mut Relation) -> Result<(), VadaError> {
    // source order: price, street, postcode, bedrooms, type, description
    let col: Vec<usize> = attrs
        .iter()
        .map(|a| source.schema().require(a))
        .collect::<Result<_, _>>()?;
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
        ]))?;
    }
    Ok(())
}

fn setup(b: &mut Bench) -> Result<Setup, VadaError> {
    let start = Instant::now();
    let scenario = scenario(&b.p, b.p.size(40_000, 1_500), 0.2);
    b.sample("extract.generate.busy_s", start.elapsed().as_secs_f64());
    let (rightmove, onthemarket) = source_attrs(scenario.config.varied_attribute_names);
    let mut dirty = Relation::empty(target_schema());
    project(&scenario.rightmove, &rightmove, &mut dirty)?;
    project(&scenario.onthemarket, &onthemarket, &mut dirty)?;
    let context = ["street", "postcode"]
        .iter()
        .map(|a| ContextColumn::from_relation(&scenario.address, a, a))
        .collect();
    Ok(Setup {
        scenario,
        dirty,
        context,
    })
}

/// One pass: match, resolve, repair. Returns the fused-and-repaired
/// relation and the rows fusion merged away, for the checks.
fn pass(b: &mut Bench, s: &Setup) -> Result<(Relation, usize), VadaError> {
    let target = target_schema();
    replay_matching(
        b,
        &[&s.scenario.rightmove, &s.scenario.onthemarket],
        &target,
        &s.context,
    );
    let (mut fused, merged) = replay_fusion(b, &s.dirty)?;
    replay_quality(b, &mut fused, &s.scenario.address);
    Ok((fused, merged))
}

pub fn run(b: &mut Bench) {
    let s = match b.setup(setup) {
        Ok(s) => s,
        Err(e) => {
            b.attempt();
            return b.fail(format!("set-up: {e}"));
        }
    };
    let mut last = None;
    b.drive("resolve_repair", 3, 1, 1, |b, i| {
        b.attempt();
        let start = Instant::now();
        let open = b.rec.enter("pass");
        let done = pass(b, &s);
        b.rec.exit(open);
        b.sample_op(start.elapsed().as_secs_f64());
        match done {
            Ok((fused, merged)) => {
                let accounted = fused.len() + merged + usize::from(b.p.inject_wrong_answer);
                b.check(accounted == s.dirty.len() && merged > 0, || {
                    format!(
                        "pass {i}: {} fused rows + {merged} merged away != {} input rows",
                        fused.len(),
                        s.dirty.len()
                    )
                });
                last = Some(fused);
                true
            }
            Err(e) => {
                b.fail(format!("pass {i}: {e}"));
                false
            }
        }
    });

    // once, untimed: a repaired relation needs no further repair
    if let Some(mut repaired) = last {
        b.attempt();
        let cfds = vada::vada_quality::learn_cfds(&Default::default(), &s.scenario.address);
        let again = repair_with_reference(
            &RepairConfig::default(),
            &mut repaired,
            &cfds,
            &s.scenario.address,
            Some(("street", "postcode")),
        );
        b.check(again.total() == 0, || {
            format!("a second repair still makes {} fixes", again.total())
        });
    }
    if b.p.trace {
        derive_layer_metrics(b);
        b.trace_overhead();
    }
}

/// The `threads` role, under `VADA_THREADS`: the resolve half alone, for
/// `common.par.resolve_speedup` (against the same calls in the main role).
pub fn run_threads(b: &mut Bench) {
    let s = match setup(b) {
        Ok(s) => s,
        Err(e) => {
            b.attempt();
            return b.fail(format!("set-up: {e}"));
        }
    };
    let cfg = cluster_config(s.dirty.schema());
    for _ in 0..b.p.ops.unwrap_or(5) {
        b.attempt();
        let start = Instant::now();
        let resolved = cluster_relation(&cfg, &s.dirty)
            .and_then(|clusters| fuse_clusters(&s.dirty, &clusters, Survivorship::Majority, None));
        b.sample("resolve_threaded_s", start.elapsed().as_secs_f64());
        if let Err(e) = resolved {
            return b.fail(e);
        }
    }
}
