//! UK-shaped postcode generation and manipulation.
//!
//! Format: `<AREA><DISTRICT> <SECTOR><UNIT>`, e.g. `M13 9PL` — area is the
//! city's letter code, district a small number, sector one digit, unit two
//! letters.

use rand::Rng;

/// A city with its postcode area code and a price multiplier used by the
/// universe generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct City {
    /// City name (lower case).
    pub name: &'static str,
    /// Postcode area prefix, e.g. `M` for Manchester.
    pub area: &'static str,
    /// Relative price level (1.0 = national average).
    pub price_level: f64,
    /// Number of postcode districts the city spans.
    pub districts: u8,
}

/// The cities of the synthetic universe. Manchester, Edinburgh and Oxford
/// lead the list as a nod to the paper's author institutions.
pub const CITIES: &[City] = &[
    City { name: "manchester", area: "M", price_level: 1.0, districts: 20 },
    City { name: "edinburgh", area: "EH", price_level: 1.2, districts: 17 },
    City { name: "oxford", area: "OX", price_level: 1.5, districts: 14 },
    City { name: "leeds", area: "LS", price_level: 0.9, districts: 18 },
    City { name: "birmingham", area: "B", price_level: 0.85, districts: 21 },
    City { name: "bristol", area: "BS", price_level: 1.15, districts: 16 },
];

/// Generate a full postcode in the given city.
pub fn generate(rng: &mut impl Rng, city: &City) -> String {
    let district = rng.gen_range(1..=city.districts);
    let sector = rng.gen_range(0..=9);
    let unit: String = (0..2)
        .map(|_| (b'A' + rng.gen_range(0..26u8)) as char)
        .collect();
    format!("{}{} {}{}", city.area, district, sector, unit)
}

/// The outward code (area + district), e.g. `M13` from `M13 9PL`.
pub fn district(postcode: &str) -> &str {
    postcode.split_whitespace().next().unwrap_or(postcode)
}

/// The city (by area code) a postcode belongs to, if any. Test support:
/// only this crate's tests read a postcode back to its city.
#[cfg(test)]
pub fn city_of(postcode: &str) -> Option<&'static City> {
    let outward = district(postcode);
    let area: String = outward.chars().take_while(|c| c.is_ascii_alphabetic()).collect();
    // longest-match: `BS` must not resolve to `B`
    CITIES
        .iter()
        .filter(|c| c.area == area)
        .max_by_key(|c| c.area.len())
}

/// Whether a string is a well-formed postcode of our universe. Test
/// support: only this crate's tests check generated postcodes with it.
#[cfg(test)]
pub fn is_valid(postcode: &str) -> bool {
    let mut parts = postcode.split(' ');
    let (Some(outward), Some(inward), None) = (parts.next(), parts.next(), parts.next()) else {
        return false;
    };
    let area: String = outward.chars().take_while(|c| c.is_ascii_alphabetic()).collect();
    let digits = &outward[area.len()..];
    let city = match CITIES.iter().find(|c| c.area == area) {
        Some(c) => c,
        None => return false,
    };
    let district_ok = digits
        .parse::<u8>()
        .map(|d| d >= 1 && d <= city.districts)
        .unwrap_or(false);
    let inward_ok = inward.len() == 3
        && inward.as_bytes()[0].is_ascii_digit()
        && inward[1..].chars().all(|c| c.is_ascii_uppercase());
    district_ok && inward_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_postcodes_are_valid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for city in CITIES {
            for _ in 0..50 {
                let pc = generate(&mut rng, city);
                assert!(is_valid(&pc), "invalid generated postcode {pc}");
                assert_eq!(city_of(&pc).unwrap().name, city.name);
            }
        }
    }

    #[test]
    fn district_extraction() {
        assert_eq!(district("M13 9PL"), "M13");
        assert_eq!(district("EH8 9AB"), "EH8");
        assert_eq!(district("nonsense"), "nonsense");
    }

    #[test]
    fn area_longest_match() {
        assert_eq!(city_of("BS3 1AA").unwrap().name, "bristol");
        assert_eq!(city_of("B3 1AA").unwrap().name, "birmingham");
        assert!(city_of("ZZ1 1AA").is_none());
    }

    #[test]
    fn validity_rejects_malformed() {
        assert!(is_valid("M13 9PL"));
        assert!(!is_valid("M13"));
        assert!(!is_valid("M99 9PL")); // Manchester has 20 districts
        assert!(!is_valid("M13 9pl"));
        assert!(!is_valid("M13  9PL"));
        assert!(!is_valid("XX13 9PL"));
    }
}
