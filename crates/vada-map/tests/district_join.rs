//! The generated district joins, checked two ways.
//!
//! * Against the form they replaced: the same three rules over a
//!   `pc_district(full, district)` helper relation derived from every
//!   postcode-shaped cell of every source. Over seeded relations full of
//!   edge cases, every augmented candidate derives the same target facts in
//!   the same order either way.
//! * Under an incremental session: an edit to the listing source touches
//!   only that source, so every append, removal and tail rewrite of the
//!   joined `rightmove` part takes the fast path and matches a scratch run.

use vada_common::obs::{key as obs_key, Obs};
use vada_common::{AttrType, Relation, Schema, Tuple, Value};
use vada_datalog::engine::{Database, Engine, EngineConfig};
use vada_datalog::{parse_program, DeltaMode, IncrementalSession};
use vada_kb::{KnowledgeBase, MappingDef, MatchDef};
use vada_map::execute::coerce_value;
use vada_map::{execute_mapping, generate_candidates, ExecuteConfig, MapGenConfig};

/// A deterministic generator (SplitMix64), so a failing seed replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick(&mut self, pool: &[Value]) -> Value {
        pool[self.below(pool.len())].clone()
    }
}

const RIGHTMOVE: [&str; 6] = [
    "price",
    "street",
    "postcode",
    "bedrooms",
    "type",
    "description",
];
const ONTHEMARKET: [&str; 3] = ["asking_price", "street_name", "post_code"];
const DEPRIVATION: [&str; 2] = ["postcode", "crime"];

/// A knowledge base holding the three sources, the target schema, and
/// the matches that make the listings primary and `deprivation`
/// augmenting.
fn scenario_kb(
    rightmove: Vec<Tuple>,
    onthemarket: Vec<Tuple>,
    deprivation: Vec<Tuple>,
) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for (name, attrs, rows) in [
        ("rightmove", &RIGHTMOVE[..], rightmove),
        ("onthemarket", &ONTHEMARKET[..], onthemarket),
        ("deprivation", &DEPRIVATION[..], deprivation),
    ] {
        let rel = Relation::from_tuples(Schema::all_str(name, attrs), rows).unwrap();
        kb.register_source(rel);
    }
    kb.register_target_schema(
        Schema::new(
            "property",
            [
                ("type", AttrType::Str),
                ("street", AttrType::Str),
                ("postcode", AttrType::Str),
                ("price", AttrType::Int),
                ("crimerank", AttrType::Int),
            ],
        )
        .unwrap(),
    );
    let matches = [
        ("rightmove", "type", "type"),
        ("rightmove", "street", "street"),
        ("rightmove", "postcode", "postcode"),
        ("rightmove", "price", "price"),
        ("onthemarket", "asking_price", "price"),
        ("onthemarket", "street_name", "street"),
        ("onthemarket", "post_code", "postcode"),
        ("deprivation", "postcode", "postcode"),
        ("deprivation", "crime", "crimerank"),
    ];
    for (i, (rel, src, tgt)) in matches.into_iter().enumerate() {
        kb.add_match(MatchDef {
            id: format!("m{i}"),
            src_rel: rel.into(),
            src_attr: src.into(),
            tgt_attr: tgt.into(),
            score: 0.9,
            matcher: "schema".into(),
        });
    }
    kb
}

/// The generated candidates that join `deprivation`.
fn augmented(kb: &KnowledgeBase) -> Vec<MappingDef> {
    let cands = generate_candidates(&MapGenConfig::default(), kb).unwrap();
    let augmented: Vec<MappingDef> = cands
        .into_iter()
        .filter(|c| c.sources.iter().any(|s| s == "deprivation"))
        .collect();
    // rightmove, onthemarket, and their union
    assert_eq!(augmented.len(), 3, "{augmented:#?}");
    augmented
}

// ---- the helper-relation form, kept here as the oracle ----

/// The `pc_district(full, district)` facts one row contributes, in
/// value order: one per string cell that contains a space and whose
/// outward code has both a letter and a digit.
fn helper_facts(row: &Tuple) -> impl Iterator<Item = Tuple> + '_ {
    row.iter().filter_map(|v| {
        let s = v.as_str().filter(|s| s.contains(' '))?;
        let outward = s.split_whitespace().next()?;
        let has_alpha = outward.chars().any(|c| c.is_ascii_alphabetic());
        let has_digit = outward.chars().any(|c| c.is_ascii_digit());
        (has_alpha && has_digit).then(|| [v.clone(), Value::str(outward)].into_iter().collect())
    })
}

/// The text between `open` and the next `close` in `s`.
fn between<'a>(s: &'a str, open: &str, close: &str) -> &'a str {
    let start = s.find(open).unwrap_or_else(|| panic!("no `{open}` in {s}")) + open.len();
    &s[start..start + s[start..].find(close).unwrap()]
}

/// `rules` rewritten rule by rule into the helper-relation form: the join
/// reads `pc_district(K, D)` instead of `D = district(K), D != null`,
/// the complement negates the helper on the key itself, and the helper
/// reads the district through `pc_district`.
fn helper_relation_form(rules: &str) -> String {
    let mut out = String::new();
    for rule in rules.lines() {
        let key = rule
            .contains("district(")
            .then(|| between(rule, "district(", ")"));
        let rewritten = match key {
            Some(k) if rule.contains("D != null") => rule.replace(
                &format!("D = district({k}), D != null"),
                &format!("pc_district({k}, D)"),
            ),
            Some(k) => rule
                .replace(&format!("D = district({k}), "), "")
                .replace("(D).", &format!("({k}).")),
            None => {
                let (head, body) = rule.split_once(" :- ").unwrap();
                let atom = body.strip_suffix(", D != null.").unwrap();
                format!(
                    "{}(PC) :- pc_district(PC, D), {atom}.",
                    head.strip_suffix("(D)").unwrap()
                )
            }
        };
        assert!(
            !rewritten.contains("= district(") && rewritten != rule,
            "{rule}"
        );
        out.push_str(&rewritten);
        out.push('\n');
    }
    out
}

/// The helper-relation input of `mapping`: each source's rows, each row
/// followed by its helper facts, in the order the sources come.
fn helper_relation_input(mapping: &MappingDef, kb: &KnowledgeBase) -> Database {
    let mut db = Database::new();
    for source in &mapping.sources {
        for row in kb.relation(source).unwrap().iter() {
            db.insert(source, row.clone());
            for fact in helper_facts(row) {
                db.insert("pc_district", fact);
            }
        }
    }
    db
}

/// The input the generated programs read: each source's rows.
fn plain_input(mapping: &MappingDef, kb: &KnowledgeBase) -> Database {
    let mut db = Database::new();
    for source in &mapping.sources {
        for row in kb.relation(source).unwrap().iter() {
            db.insert(source, row.clone());
        }
    }
    db
}

fn run(rules: &str, input: Database) -> Database {
    Engine::default()
        .run(&parse_program(rules).unwrap(), input)
        .unwrap()
}

/// Seeded relations over key pools that cover every shape the function
/// must tell apart: postcodes, keys without a space, all-letter and
/// all-digit outward codes, whitespace oddities, null and non-string
/// cells; postcode-shaped values sit in non-key columns and inside
/// `deprivation` too, and `deprivation` has a null key and duplicate keys.
fn seeded_kb(seed: u64) -> KnowledgeBase {
    let mut rng = Rng(seed);
    let s = Value::str;
    let keys = [
        s("M1 1AA"),
        s("M1 2BB"),
        s("M13 9PL"),
        s("EH1 1AA"),
        s("EH8 9AB"),
        s("OX1 2JD"),
        s("SW1A 2AA"),
        s(" M1 1AA"),
        s("M1  1AA"),
        s("M1 "),
        s("M1"),
        s("M11AA"),
        s("M1\t1AA"),
        s("ABC DEF"),
        s("hello world"),
        s("123 456"),
        s(""),
        s(" "),
        Value::Null,
        Value::Int(7),
        Value::Float(1.5),
        Value::Bool(true),
    ];
    let cells = [
        s("12 high st"),
        s("9 park rd"),
        s("flat"),
        s("£250,000"),
        s("EH1 9ZZ"),
        s("M13 1AB"),
        s("M1"),
        Value::Null,
        Value::Int(3),
        Value::Float(2.5),
    ];
    let districts = [
        s("M1"),
        s("M13"),
        s("EH1"),
        s("EH8"),
        s("SW1A"),
        s("OX9"),
        s("M1 1AA"),
        s("123"),
        s("ABC"),
        s(""),
        Value::Int(1),
    ];
    let row = |rng: &mut Rng, arity: usize, key: usize, pool: &[Value]| -> Tuple {
        (0..arity)
            .map(|i| {
                if i == key {
                    rng.pick(&keys)
                } else {
                    rng.pick(pool)
                }
            })
            .collect()
    };
    let rightmove = (0..60).map(|_| row(&mut rng, 6, 2, &cells)).collect();
    let onthemarket = (0..40).map(|_| row(&mut rng, 3, 2, &cells)).collect();
    let mut deprivation: Vec<Tuple> = (0..12)
        .map(|_| {
            [rng.pick(&districts), rng.pick(&cells)]
                .into_iter()
                .collect()
        })
        .collect();
    // a null key, and a district with two rows
    deprivation.push([Value::Null, s("100")].into_iter().collect());
    deprivation.push([s("M1"), s("200")].into_iter().collect());
    deprivation.push([s("M1"), s("M1 1AA")].into_iter().collect());
    scenario_kb(rightmove, onthemarket, deprivation)
}

#[test]
fn generated_district_joins_match_the_helper_relation_form() {
    let cfg = ExecuteConfig::default();
    let mut joined = 0;
    for seed in 1..=16 {
        let kb = seeded_kb(seed);
        for mapping in augmented(&kb) {
            let old_rules = helper_relation_form(&mapping.rules);
            let old = run(&old_rules, helper_relation_input(&mapping, &kb));
            let new = run(&mapping.rules, plain_input(&mapping, &kb));
            let context = format!("seed {seed}\n{}\nagainst\n{old_rules}", mapping.rules);
            assert_eq!(new.facts("property"), old.facts("property"), "{context}");
            joined += new
                .facts("property")
                .iter()
                .filter(|t| !t[4].is_null())
                .count();

            // the production path reads the same facts, coerced
            let target = kb.target_schema().unwrap();
            let coerced: Vec<Tuple> = old
                .facts("property")
                .iter()
                .map(|t| {
                    t.iter()
                        .zip(target.attributes())
                        .map(|(v, a)| coerce_value(v, a.ty))
                        .collect()
                })
                .collect();
            let executed = execute_mapping(&cfg, &mapping, &kb).unwrap();
            assert_eq!(executed.tuples(), coerced, "{context}");
        }
    }
    // the seeds exercise the join, not only its complement
    assert!(joined > 100, "{joined} joined facts");
}

/// A printed rule parses back to itself: every generated candidate, null
/// heads and both null guards included. (The rules depend on the matches
/// alone, which every seed of the fixture shares.)
#[test]
fn printed_candidates_parse_back_to_themselves() {
    let candidates = generate_candidates(&MapGenConfig::default(), &seeded_kb(1)).unwrap();
    assert_eq!(candidates.len(), 6, "{candidates:#?}");
    for mapping in candidates {
        let program = parse_program(&mapping.rules).unwrap();
        let printed = program.to_string();
        let reparsed = parse_program(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(reparsed, program, "{printed}");
    }
}

// ---- the joined part under an incremental session ----

/// `n` distinct listing rows numbered from `from`, over districts that
/// `deprivation` covers in part.
fn listings(rng: &mut Rng, from: usize, n: usize) -> Vec<Tuple> {
    let areas = ["M", "EH", "OX", "LS"];
    (from..from + n)
        .map(|i| {
            let postcode = match rng.below(20) {
                0 => Value::Null,
                1 => Value::str("unknown"),
                _ => Value::str(format!(
                    "{}{} {}AB",
                    areas[rng.below(areas.len())],
                    1 + rng.below(12),
                    rng.below(10)
                )),
            };
            let price = Value::str((100_000 + 1_000 * rng.below(400)).to_string());
            [
                price,
                Value::str(format!("{i} high st")),
                postcode,
                Value::str((1 + rng.below(5)).to_string()),
                Value::str("flat"),
                Value::str(format!("listing {i}")),
            ]
            .into_iter()
            .collect()
        })
        .collect()
}

#[test]
fn joined_part_takes_the_incremental_path_on_every_rightmove_edit() {
    const BATCH: usize = 32;
    let mut rng = Rng(7);
    let mut rows = listings(&mut rng, 0, 320);
    let deprivation: Vec<Tuple> = ["M", "EH", "OX"]
        .iter()
        .flat_map(|area| (1..=9).map(move |d| format!("{area}{d}")))
        .enumerate()
        .map(|(rank, district)| {
            [Value::str(district), Value::str(rank.to_string())]
                .into_iter()
                .collect()
        })
        .collect();
    let kb = scenario_kb(rows.clone(), vec![], deprivation.clone());
    let part = augmented(&kb)
        .into_iter()
        .find(|c| c.sources[0] == "rightmove")
        .unwrap();
    assert_eq!(part.sources, ["rightmove", "deprivation"]);

    let input = |rows: &[Tuple]| {
        let mut db = Database::new();
        for row in rows {
            db.insert("rightmove", row.clone());
        }
        for row in &deprivation {
            db.insert("deprivation", row.clone());
        }
        db
    };
    // the fallback tallies are read off the registry the session is given
    let engine = EngineConfig { obs: Obs::enabled(), ..EngineConfig::default() };
    let mut session = IncrementalSession::new(engine, &part.rules).unwrap();
    session.run_full(input(&rows)).unwrap();

    let check = |session: &IncrementalSession, rows: &[Tuple], step: &str| {
        let outcome = session.last_outcome().unwrap();
        assert_eq!(outcome.mode, DeltaMode::Incremental, "{step}: {outcome:?}");
        let fallbacks: Vec<(String, u64)> = session
            .obs()
            .counters()
            .into_iter()
            .filter(|(k, n)| k.starts_with(obs_key::INC_FALLBACK_PREFIX) && *n > 0)
            .collect();
        assert!(fallbacks.is_empty(), "{step}: {fallbacks:?}");
        let scratch = run(&part.rules, input(rows));
        let mut preds = session.database().predicates();
        preds.sort();
        let mut expected = scratch.predicates();
        expected.sort();
        assert_eq!(preds, expected, "{step}");
        for pred in expected {
            assert_eq!(
                session.database().facts(pred),
                scratch.facts(pred),
                "{step}: {pred}"
            );
        }
    };
    let facts = |rows: &[Tuple]| {
        rows.iter()
            .map(|r| ("rightmove".to_string(), r.clone()))
            .collect()
    };

    let mut next = rows.len();
    for cycle in 0..4 {
        // append a batch
        let batch = listings(&mut rng, next, BATCH);
        next += BATCH;
        rows.extend(batch.iter().cloned());
        session.apply(facts(&batch)).unwrap();
        check(&session, &rows, &format!("append {cycle}"));

        // remove every other row of a window
        let first = (cycle * 131) % (rows.len() - 2 * BATCH);
        let doomed: Vec<usize> = (0..BATCH).map(|k| first + 2 * k).collect();
        let removed: Vec<Tuple> = doomed.iter().map(|&i| rows[i].clone()).collect();
        for &i in doomed.iter().rev() {
            rows.remove(i);
        }
        session.retract(facts(&removed)).unwrap();
        check(&session, &rows, &format!("removal {cycle}"));
    }

    // rewrite the tail's prices: the old rows leave, the new ones follow
    let tail = rows.len() - BATCH;
    let old: Vec<Tuple> = rows[tail..].to_vec();
    for (k, row) in rows[tail..].iter_mut().enumerate() {
        *row = row.with_value(0, Value::str((150_000 + k).to_string()));
    }
    session.retract(facts(&old)).unwrap();
    check(&session, &rows[..tail], "tail rewrite, removal");
    session.apply(facts(&rows[tail..])).unwrap();
    check(&session, &rows, "tail rewrite, append");
}
