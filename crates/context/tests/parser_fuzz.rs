//! Parser robustness: arbitrary inputs never panic, and structured
//! descriptors round-trip through a canonical textual rendering.

use ctxpref_context::{
    parse_descriptor, parse_extended_descriptor, ContextDescriptor, ContextEnvironment, ParamId,
    ParameterDescriptor,
};
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
use proptest::prelude::*;

fn env() -> ContextEnvironment {
    let mut loc = HierarchyBuilder::new("location", &["Region", "City"]);
    loc.add("City", "Athens", None).unwrap();
    loc.add("City", "Ioannina", None).unwrap();
    loc.add_leaves("Athens", &["Plaka", "Kifisia"]).unwrap();
    loc.add_leaves("Ioannina", &["Perama"]).unwrap();
    ContextEnvironment::new(vec![
        loc.build().unwrap(),
        Hierarchy::flat("weather", &["cold", "mild", "warm", "hot"]).unwrap(),
        Hierarchy::flat("company", &["friends", "family", "alone"]).unwrap(),
    ])
    .unwrap()
}

/// Render a descriptor in the parser's own surface syntax.
fn render(env: &ContextEnvironment, cod: &ContextDescriptor) -> String {
    if cod.is_empty() {
        return "*".to_string();
    }
    let mut parts = Vec::new();
    for (p, pd) in cod.clauses() {
        let pd = ParameterDescriptor::from(pd);
        let h = env.hierarchy(p);
        let part = match &pd {
            ParameterDescriptor::Eq(v) => format!("{} = {}", h.name(), h.value_name(*v)),
            ParameterDescriptor::In(vs) => format!(
                "{} in {{{}}}",
                h.name(),
                vs.iter()
                    .map(|v| h.value_name(*v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            ParameterDescriptor::Range(a, b) => {
                format!(
                    "{} in [{}, {}]",
                    h.name(),
                    h.value_name(*a),
                    h.value_name(*b)
                )
            }
        };
        parts.push(part);
    }
    parts.join(" and ")
}

/// Random structured descriptors over `env()`.
fn descriptor_strategy() -> impl Strategy<Value = ContextDescriptor> {
    let clause = |p: usize, values: usize| {
        prop_oneof![
            (0..values).prop_map(move |v| (p, 0usize, vec![v])),
            proptest::collection::vec(0..values, 1..4).prop_map(move |vs| (p, 1, vs)),
            ((0..values), (0..values)).prop_map(move |(a, b)| (p, 2, vec![a, b])),
        ]
    };
    (
        proptest::option::of(clause(0, 3)), // location regions
        proptest::option::of(clause(1, 4)), // weather
        proptest::option::of(clause(2, 3)), // company
    )
        .prop_map(|(a, b, c)| {
            let env = env();
            let mut cod = ContextDescriptor::empty();
            for spec in [a, b, c].into_iter().flatten() {
                let (p, kind, idx) = spec;
                let p = ParamId(p as u16);
                let h = env.hierarchy(p);
                let dom = h.domain(h.detailed_level());
                let vals: Vec<_> = idx.iter().map(|&i| dom[i % dom.len()]).collect();
                let pd = match kind {
                    0 => ParameterDescriptor::Eq(vals[0]),
                    1 => ParameterDescriptor::In(vals),
                    _ => {
                        let (mut a, mut b) = (vals[0], vals[1]);
                        if h.pos_in_level(a) > h.pos_in_level(b) {
                            std::mem::swap(&mut a, &mut b);
                        }
                        ParameterDescriptor::Range(a, b)
                    }
                };
                cod = cod.with(p, pd);
            }
            cod
        })
}

proptest! {
    /// Arbitrary garbage never panics the parser.
    #[test]
    fn parser_never_panics(input in ".{0,80}") {
        let env = env();
        let _ = parse_descriptor(&env, &input);
        let _ = parse_extended_descriptor(&env, &input);
    }

    /// Garbage made of plausible tokens never panics either (and
    /// exercises deeper parse paths than pure noise).
    #[test]
    fn tokeny_garbage_never_panics(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("location"), Just("weather"), Just("and"), Just("or"),
                Just("in"), Just("="), Just("{"), Just("}"), Just("["),
                Just("]"), Just(","), Just("("), Just(")"), Just("*"),
                Just("Plaka"), Just("warm"), Just("'"), Just("∧"), Just("∨"),
            ],
            0..16,
        )
    ) {
        let env = env();
        let input = toks.join(" ");
        let _ = parse_extended_descriptor(&env, &input);
    }

    /// Structured → text → structured is the identity on the denoted
    /// context (state sets), and on the descriptor itself after `In`
    /// deduplication.
    #[test]
    fn descriptor_roundtrips_through_text(cod in descriptor_strategy()) {
        let env = env();
        let text = render(&env, &cod);
        let parsed = parse_descriptor(&env, &text)
            .unwrap_or_else(|e| panic!("rendering {text:?} failed to parse: {e}"));
        let s1 = cod.states(&env).unwrap();
        let s2 = parsed.states(&env).unwrap();
        prop_assert_eq!(s1, s2, "context changed through text {}", text);
    }

    /// Disjunctions of rendered descriptors round-trip state-wise too.
    #[test]
    fn extended_descriptor_roundtrips(
        a in descriptor_strategy(),
        b in descriptor_strategy(),
    ) {
        let env = env();
        let text = format!("({}) or ({})", render(&env, &a), render(&env, &b));
        // `*` inside parens is valid; skip renderings that collapse to it
        // only when both are empty (still parseable).
        let parsed = parse_extended_descriptor(&env, &text).unwrap();
        let direct = ctxpref_context::ExtendedContextDescriptor::new().or(a).or(b);
        let mut s1 = parsed.states(&env).unwrap();
        let mut s2 = direct.states(&env).unwrap();
        s1.sort();
        s2.sort();
        prop_assert_eq!(s1, s2);
    }
}
