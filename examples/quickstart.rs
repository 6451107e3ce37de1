//! Quickstart: wrangle two small CSV sources into a target schema with
//! zero configuration — the "automatic bootstrapping" step of the paper's
//! demonstration.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use vada::Wrangler;
use vada_common::{csv, AttrType, Obs, Schema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // two listing sources as they might arrive from web extraction — note
    // the different attribute names and the messy price formats
    let rightmove = csv::read_relation(
        "price,street,postcode,bedrooms\n\
         250000,12 high street,M1 1AA,3\n\
         £315000,9 park road,M4 2BB,4\n\
         ,3 mill lane,M1 1AA,2\n",
        Schema::all_str("rightmove", &["price", "street", "postcode", "bedrooms"]),
    )?;
    let onthemarket = csv::read_relation(
        "asking_price,street_name,post_code,beds\n\
         412000,41 oak avenue,M20 3CC,5\n\
         250000,12 high street,M1 1AA,3\n",
        Schema::all_str(
            "onthemarket",
            &["asking_price", "street_name", "post_code", "beds"],
        ),
    )?;

    // the schema the analysis needs (paper Fig 2(b), trimmed)
    let target = Schema::new(
        "property",
        [
            ("street", AttrType::Str),
            ("postcode", AttrType::Str),
            ("bedrooms", AttrType::Int),
            ("price", AttrType::Int),
        ],
    )?;

    let mut wrangler = Wrangler::new();
    // collect pipeline counters for the report printed at the end
    wrangler.set_obs(Obs::enabled());
    wrangler.add_source(rightmove);
    wrangler.add_source(onthemarket);
    wrangler.set_target(target);

    // one call orchestrates matching, mapping generation, quality
    // measurement, selection, execution and fusion
    let report = wrangler.run()?;
    println!("transducers executed: {}", report.executed);
    println!("{}", wrangler.trace().render());

    let result = wrangler.result().expect("a result is materialised");
    println!("wrangled result ({} rows):", result.len());
    println!("{}", result.to_table(10));

    // what the pipeline did, as deterministic counters: the `pipeline.*`
    // names are byte-identical at every knob setting
    println!("{}", wrangler.obs_report().render());

    // the duplicate listing (12 high street) was fused; prices are typed
    // integers with the currency formatting stripped
    assert!(result.len() <= 4);
    Ok(())
}
