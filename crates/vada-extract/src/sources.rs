//! The demonstration scenario generator (paper Fig 2): source relations
//! `rightmove` and `onthemarket` derived from the universe through defect
//! models, open-government `deprivation` data, the `address` reference
//! list, and the target schema.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vada_common::{AttrType, Relation, Schema, Tuple, Value};

use crate::errors::{self, ErrorModel};
use crate::universe::{GroundProperty, Universe, UniverseConfig, PROPERTY_TYPES};

/// Scenario generation parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Universe parameters.
    pub universe: UniverseConfig,
    /// Fraction of ground properties each source lists (independently).
    pub source_fraction: f64,
    /// Probability a listed property appears twice in the same source
    /// (with independent defects) — exercises duplicate detection.
    pub duplicate_rate: f64,
    /// Fraction of postcode districts present in the deprivation table.
    pub deprivation_coverage: f64,
    /// Defect model for the `rightmove` source.
    pub rightmove_errors: ErrorModel,
    /// Defect model for the `onthemarket` source.
    pub onthemarket_errors: ErrorModel,
    /// When true, `onthemarket` uses different attribute names
    /// (`asking_price`, `beds`, ...) so schema matching has real work to do
    /// (the paper notes attribute names are only consistent "for ease of
    /// comprehension").
    pub varied_attribute_names: bool,
    /// Seed for sampling and defect injection (separate from the universe
    /// seed so the same world can be extracted in different ways).
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            universe: UniverseConfig::default(),
            source_fraction: 0.7,
            duplicate_rate: 0.05,
            deprivation_coverage: 0.8,
            rightmove_errors: ErrorModel::realistic(),
            onthemarket_errors: ErrorModel::realistic().scaled(1.4),
            varied_attribute_names: true,
            seed: 7,
        }
    }
}

/// The generated demonstration scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The ground-truth world.
    pub universe: Universe,
    /// Source: rightmove listings.
    pub rightmove: Relation,
    /// Source: onthemarket listings.
    pub onthemarket: Relation,
    /// Open-government data: postcode → crime rank (partial coverage).
    pub deprivation: Relation,
    /// Reference data: the complete address list (street, city, postcode).
    pub address: Relation,
    /// Config used.
    pub config: ScenarioConfig,
}

/// The paper's target schema (Fig 2(b)):
/// `property(type, description, street, postcode, bedrooms, price, crimerank)`.
pub fn target_schema() -> Schema {
    Schema::new(
        "property",
        [
            ("type", AttrType::Str),
            ("description", AttrType::Str),
            ("street", AttrType::Str),
            ("postcode", AttrType::Str),
            ("bedrooms", AttrType::Int),
            ("price", AttrType::Int),
            ("crimerank", AttrType::Int),
        ],
    )
    .expect("static schema is valid")
}

/// Attribute names used by each source. `rightmove` keeps the paper's
/// names; `onthemarket` varies when `varied_attribute_names` is set.
pub fn source_attrs(varied: bool) -> (Vec<&'static str>, Vec<&'static str>) {
    let rightmove = vec!["price", "street", "postcode", "bedrooms", "type", "description"];
    let onthemarket = if varied {
        vec!["asking_price", "street_name", "post_code", "beds", "property_type", "details"]
    } else {
        rightmove.clone()
    };
    (rightmove, onthemarket)
}

impl Scenario {
    /// Generate the full scenario.
    pub fn generate(config: ScenarioConfig) -> Scenario {
        let universe = Universe::generate(config.universe.clone());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (rm_attrs, otm_attrs) = source_attrs(config.varied_attribute_names);

        let rightmove = extract_source(
            "rightmove",
            &rm_attrs,
            &universe,
            &config.rightmove_errors,
            config.source_fraction,
            config.duplicate_rate,
            &mut rng,
        );
        let onthemarket = extract_source(
            "onthemarket",
            &otm_attrs,
            &universe,
            &config.onthemarket_errors,
            config.source_fraction,
            config.duplicate_rate,
            &mut rng,
        );

        // deprivation: one row per *postcode district* with coverage sampling
        let mut deprivation = Relation::empty(Schema::new(
            "deprivation",
            [("postcode", AttrType::Str), ("crime", AttrType::Str)],
        ).expect("static schema"));
        for (district, rank) in &universe.crime_by_district {
            if rng.gen_bool(config.deprivation_coverage.clamp(0.0, 1.0)) {
                let row = [Value::str(district), Value::str(rank.to_string())];
                deprivation.push(row.into_iter().collect()).expect("arity 2");
            }
        }

        // address reference data: complete, clean
        let mut address = Relation::empty(Schema::new(
            "address",
            [
                ("street", AttrType::Str),
                ("city", AttrType::Str),
                ("postcode", AttrType::Str),
            ],
        ).expect("static schema"));
        for p in &universe.properties {
            let row = [Value::str(&p.street), Value::str(&p.city), Value::str(&p.postcode)];
            address.push(row.into_iter().collect()).expect("arity 3");
        }

        Scenario { universe, rightmove, onthemarket, deprivation, address, config }
    }
}

/// Extract one source relation from the universe under a defect model.
fn extract_source(
    name: &str,
    attrs: &[&str],
    universe: &Universe,
    errors: &ErrorModel,
    fraction: f64,
    duplicate_rate: f64,
    rng: &mut StdRng,
) -> Relation {
    let schema = Schema::new(name, attrs.iter().map(|a| (a.to_string(), AttrType::Str)))
        .expect("source attrs unique");
    let mut rel = Relation::empty(schema);
    for p in &universe.properties {
        if !rng.gen_bool(fraction.clamp(0.0, 1.0)) {
            continue;
        }
        let n = if rng.gen_bool(duplicate_rate.clamp(0.0, 1.0)) { 2 } else { 1 };
        for _ in 0..n {
            rel.push(extract_row(p, errors, rng)).expect("row arity");
        }
    }
    rel
}

/// Extract one row (canonical column order: price, street, postcode,
/// bedrooms, type, description) with defects applied.
fn extract_row(p: &GroundProperty, e: &ErrorModel, rng: &mut StdRng) -> Tuple {
    let field = |canonical: Field| -> Value {
        if rng.gen_bool(e.missing_rate) {
            return Value::Null;
        }
        match canonical {
            Field::Price => {
                if rng.gen_bool(e.price_format_rate) {
                    Value::str(errors::format_price_pretty(p.price))
                } else {
                    Value::str(p.price.to_string())
                }
            }
            Field::Street => {
                let mut s = p.street.clone();
                if rng.gen_bool(e.typo_rate) {
                    s = errors::typo(rng, &s);
                }
                Value::str(s)
            }
            Field::Postcode => {
                let mut s = p.postcode.clone();
                if rng.gen_bool(e.typo_rate) {
                    s = errors::typo(rng, &s);
                }
                Value::str(s)
            }
            Field::Bedrooms => {
                if rng.gen_bool(e.bedroom_area_rate) {
                    // the paper's defect: master-bedroom area in m² instead
                    // of the bedroom count
                    Value::str(rng.gen_range(9..35i64).to_string())
                } else {
                    Value::str(p.bedrooms.to_string())
                }
            }
            Field::Type => {
                if rng.gen_bool(e.wrong_type_rate) {
                    let wrong: Vec<&&str> =
                        PROPERTY_TYPES.iter().filter(|t| **t != p.ptype).collect();
                    Value::str(*wrong[rng.gen_range(0..wrong.len())])
                } else {
                    Value::str(&p.ptype)
                }
            }
            Field::Description => Value::str(&p.description),
        }
    };
    // the fields draw from `rng` in column order
    [Field::Price, Field::Street, Field::Postcode, Field::Bedrooms, Field::Type, Field::Description]
        .into_iter()
        .map(field)
        .collect()
}

#[derive(Clone, Copy)]
enum Field {
    Price,
    Street,
    Postcode,
    Bedrooms,
    Type,
    Description,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::generate(ScenarioConfig::default())
    }

    #[test]
    fn generation_deterministic() {
        let a = scenario();
        let b = scenario();
        assert_eq!(a.rightmove.tuples(), b.rightmove.tuples());
        assert_eq!(a.deprivation.tuples(), b.deprivation.tuples());
    }

    #[test]
    fn sources_sample_the_universe() {
        let s = scenario();
        let n = s.universe.properties.len() as f64;
        let rm = s.rightmove.len() as f64;
        assert!(rm > n * 0.5 && rm < n * 0.95, "rightmove size {rm} of {n}");
        // varied names by default
        assert_eq!(s.onthemarket.schema().attr_names()[0], "asking_price");
        assert_eq!(s.rightmove.schema().attr_names()[0], "price");
    }

    #[test]
    fn consistent_names_mode() {
        let s = Scenario::generate(ScenarioConfig {
            varied_attribute_names: false,
            ..Default::default()
        });
        assert_eq!(
            s.onthemarket.schema().attr_names(),
            s.rightmove.schema().attr_names()
        );
    }

    #[test]
    fn clean_model_reproduces_ground_truth() {
        let s = Scenario::generate(ScenarioConfig {
            rightmove_errors: ErrorModel::CLEAN,
            duplicate_rate: 0.0,
            source_fraction: 1.0,
            ..Default::default()
        });
        assert_eq!(s.rightmove.len(), s.universe.properties.len());
        for (t, p) in s.rightmove.iter().zip(&s.universe.properties) {
            assert_eq!(t[0], Value::str(p.price.to_string()));
            assert_eq!(t[1], Value::str(&p.street));
            assert_eq!(t[3], Value::str(p.bedrooms.to_string()));
        }
    }

    #[test]
    fn deprivation_covers_districts_partially() {
        let s = scenario();
        let districts = s.universe.crime_by_district.len();
        let covered = s.deprivation.len();
        assert!(covered < districts, "coverage should be partial");
        assert!(covered as f64 > districts as f64 * 0.5);
    }

    #[test]
    fn address_reference_is_complete_and_clean() {
        let s = scenario();
        assert_eq!(s.address.len(), s.universe.properties.len());
        for a in ["street", "city", "postcode"] {
            assert_eq!(s.address.completeness(a).unwrap(), 1.0);
        }
    }

    #[test]
    fn defects_present_at_realistic_rates() {
        let s = scenario();
        // some nulls somewhere
        let nulls: usize = s.rightmove.iter().map(|t| t.null_count()).sum();
        assert!(nulls > 0);
        // some pretty-formatted prices
        let pretty = s
            .rightmove
            .iter()
            .filter(|t| t[0].as_str().is_some_and(|s| s.starts_with('£')))
            .count();
        assert!(pretty > 0);
        // some bedroom-area errors (bedrooms > 6)
        let area_beds = s
            .rightmove
            .iter()
            .filter(|t| {
                t[3].as_str()
                    .and_then(|s| s.parse::<i64>().ok())
                    .is_some_and(|b| b > 6)
            })
            .count();
        assert!(area_beds > 0);
    }

    #[test]
    fn target_schema_matches_paper() {
        let t = target_schema();
        assert_eq!(
            t.attr_names(),
            vec!["type", "description", "street", "postcode", "bedrooms", "price", "crimerank"]
        );
        assert_eq!(t.name, "property");
    }
}
