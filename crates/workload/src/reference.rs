//! The paper's reference world: hierarchies of Figures 1–2 and a
//! deterministic points-of-interest database over the two largest Greek
//! cities (the paper's usability study uses a real POI database of
//! Athens and Thessaloniki; we generate a faithful synthetic one — see
//! `DESIGN.md` §4).

use ctxpref_context::ContextEnvironment;
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
use ctxpref_relation::{AttrType, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// POI categories used by the generator and the default profiles.
pub const POI_TYPES: &[&str] = &[
    "museum",
    "monument",
    "archaeological_site",
    "zoo",
    "park",
    "beach",
    "cafeteria",
    "brewery",
    "club",
    "theater",
    "market",
    "aquarium",
];

/// Regions of Athens (Figure 1 extended).
pub const ATHENS_REGIONS: &[&str] = &[
    "Plaka",
    "Kifisia",
    "Monastiraki",
    "Kolonaki",
    "Exarchia",
    "Glyfada",
    "Piraeus",
    "Marousi",
];

/// Regions of Thessaloniki.
pub const THESSALONIKI_REGIONS: &[&str] = &[
    "Ladadika",
    "Kalamaria",
    "Ano_Poli",
    "Toumba",
    "Pylaia",
    "Panorama",
];

/// Regions of Ioannina (kept from Figure 1).
pub const IOANNINA_REGIONS: &[&str] = &["Perama", "Kastro"];

/// The exact reference environment of Figure 2: `location` with
/// Region ≺ City ≺ Country ≺ ALL (Plaka/Kifisia under Athens, Perama
/// under Ioannina), `temperature` with Conditions ≺ Characterization ≺
/// ALL (freezing, cold | mild, warm, hot grouped into bad | good), and
/// flat `accompanying_people` (friends, family, alone).
pub fn reference_env() -> ContextEnvironment {
    let mut loc = HierarchyBuilder::new("location", &["Region", "City", "Country"]);
    loc.add("Country", "Greece", None).unwrap();
    loc.add("City", "Athens", Some("Greece")).unwrap();
    loc.add("City", "Ioannina", Some("Greece")).unwrap();
    loc.add_leaves("Athens", &["Plaka", "Kifisia"]).unwrap();
    loc.add_leaves("Ioannina", &["Perama"]).unwrap();
    ContextEnvironment::new(vec![
        loc.build().unwrap(),
        temperature_hierarchy(),
        people_hierarchy(),
    ])
    .unwrap()
}

/// The two-city environment for the usability study: the same
/// temperature and accompanying-people hierarchies, with a location
/// hierarchy covering every region of Athens, Thessaloniki, and
/// Ioannina.
pub fn poi_env() -> ContextEnvironment {
    let mut loc = HierarchyBuilder::new("location", &["Region", "City", "Country"]);
    loc.add("Country", "Greece", None).unwrap();
    for (city, regions) in [
        ("Athens", ATHENS_REGIONS),
        ("Thessaloniki", THESSALONIKI_REGIONS),
        ("Ioannina", IOANNINA_REGIONS),
    ] {
        loc.add("City", city, Some("Greece")).unwrap();
        loc.add_leaves(city, regions).unwrap();
    }
    ContextEnvironment::new(vec![
        loc.build().unwrap(),
        temperature_hierarchy(),
        people_hierarchy(),
    ])
    .unwrap()
}

/// The temperature hierarchy of Figure 2: Conditions {freezing, cold,
/// mild, warm, hot} ≺ Weather_Characterization {bad, good} ≺ ALL.
pub fn temperature_hierarchy() -> Hierarchy {
    let mut temp = HierarchyBuilder::new("temperature", &["Conditions", "Characterization"]);
    temp.add("Characterization", "bad", None).unwrap();
    temp.add("Characterization", "good", None).unwrap();
    temp.add_leaves("bad", &["freezing", "cold"]).unwrap();
    temp.add_leaves("good", &["mild", "warm", "hot"]).unwrap();
    temp.build().unwrap()
}

/// The accompanying-people hierarchy of Figure 2: Relationship
/// {friends, family, alone} ≺ ALL.
pub fn people_hierarchy() -> Hierarchy {
    Hierarchy::flat("accompanying_people", &["friends", "family", "alone"]).unwrap()
}

/// The schema of the paper's single relation:
/// `Points_of_Interest(pid, name, type, location, open_air,
/// hours_of_operation, admission_cost)`.
pub fn poi_schema() -> Schema {
    Schema::new(&[
        ("pid", AttrType::Int),
        ("name", AttrType::Str),
        ("type", AttrType::Str),
        ("location", AttrType::Str),
        ("open_air", AttrType::Bool),
        ("hours_of_operation", AttrType::Str),
        ("admission_cost", AttrType::Float),
    ])
    .unwrap()
}

/// Whether a POI type is (typically) open-air — open-air POIs are the
/// ones whose attractiveness the paper ties to temperature.
pub fn is_open_air(poi_type: &str) -> bool {
    matches!(
        poi_type,
        "monument" | "archaeological_site" | "zoo" | "park" | "beach" | "market"
    )
}

/// Generate a deterministic POI database: for every region of `env`'s
/// location hierarchy, `per_region_hint` POIs on average with types,
/// opening hours and admission costs drawn from realistic ranges.
///
/// The same `(env, seed, per_region_hint)` always yields the same
/// relation.
pub fn poi_relation(env: &ContextEnvironment, seed: u64, per_region_hint: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let loc = env
        .param("location")
        .expect("environment has a location parameter");
    let lh = env.hierarchy(loc);
    let mut rel = Relation::new("Points_of_Interest", poi_schema());
    let mut pid: i64 = 0;
    for &region in lh.domain(lh.detailed_level()) {
        let region_name = lh.value_name(region).to_string();
        let count = 1 + rng.random_range(0..per_region_hint.max(1) * 2);
        for _ in 0..count {
            let ty = POI_TYPES[rng.random_range(0..POI_TYPES.len())];
            pid += 1;
            let name = format!("{}_{}_{}", ty, region_name, pid);
            let open_air = is_open_air(ty) && rng.random::<f64>() < 0.8;
            let opens = rng.random_range(7..12);
            let closes = rng.random_range(17..24);
            let hours = format!("{opens:02}:00-{closes:02}:00");
            let cost = match ty {
                "park" | "market" | "beach" => 0.0,
                "cafeteria" | "brewery" | "club" => 0.0,
                _ => f64::from(rng.random_range(2..25)),
            };
            rel.insert(vec![
                Value::Int(pid),
                Value::str(&name),
                Value::str(ty),
                Value::str(&region_name),
                Value::Bool(open_air),
                Value::str(&hours),
                Value::Float(cost),
            ])
            .expect("generated tuple matches the POI schema");
        }
    }
    rel
}

/// A one-parameter universe (`mood` ∈ {low, high}) for tests whose
/// state comparisons serialize the whole database: small on purpose.
pub fn tiny_env() -> ContextEnvironment {
    ContextEnvironment::new(vec![
        Hierarchy::flat("mood", &["low", "high"]).expect("static hierarchy")
    ])
    .expect("static environment")
}

/// The two-tuple relation (`alpha`, `beta`) paired with [`tiny_env`].
pub fn tiny_relation() -> Relation {
    let schema = Schema::new(&[("name", AttrType::Str)]).expect("static schema");
    let mut rel = Relation::new("items", schema);
    rel.insert(vec!["alpha".into()]).expect("static tuple");
    rel.insert(vec!["beta".into()]).expect("static tuple");
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::ContextState;

    #[test]
    fn reference_env_matches_figure_2() {
        let env = reference_env();
        assert_eq!(env.len(), 3);
        let loc = env.hierarchy(env.param("location").unwrap());
        assert_eq!(loc.level_count(), 4);
        let tmp = env.hierarchy(env.param("temperature").unwrap());
        assert_eq!(tmp.level_count(), 3);
        assert_eq!(tmp.domain_size(tmp.detailed_level()), 5);
        let ppl = env.hierarchy(env.param("accompanying_people").unwrap());
        assert_eq!(ppl.level_count(), 2);
        // The running-example state parses.
        ContextState::parse(&env, &["Plaka", "warm", "friends"]).unwrap();
    }

    #[test]
    fn poi_env_covers_both_cities() {
        let env = poi_env();
        let loc = env.hierarchy(env.param("location").unwrap());
        assert_eq!(
            loc.domain_size(loc.detailed_level()),
            ATHENS_REGIONS.len() + THESSALONIKI_REGIONS.len() + IOANNINA_REGIONS.len()
        );
        let thess = loc.lookup("Thessaloniki").unwrap();
        assert_eq!(
            loc.desc(thess, loc.detailed_level()).len(),
            THESSALONIKI_REGIONS.len()
        );
    }

    #[test]
    fn poi_relation_is_deterministic_and_valid() {
        let env = poi_env();
        let a = poi_relation(&env, 7, 4);
        let b = poi_relation(&env, 7, 4);
        assert_eq!(a.len(), b.len());
        assert!(
            a.len() > 50,
            "two cities should yield a substantial database"
        );
        let ty = a.schema().attr("type").unwrap();
        for t in a.tuples() {
            let name = t.value(ty).to_string();
            assert!(POI_TYPES.contains(&name.as_str()));
        }
        // A different seed yields a different database.
        let c = poi_relation(&env, 8, 4);
        assert!(a.len() != c.len() || a.tuples() != c.tuples());
    }

    #[test]
    fn open_air_classification() {
        assert!(is_open_air("beach"));
        assert!(!is_open_air("museum"));
        assert!(!is_open_air("club"));
    }
}
