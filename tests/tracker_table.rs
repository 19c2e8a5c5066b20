//! Golden test: the semantic table of §2.2 for the Fig. 3 `tracker`,
//! including the internal streams the paper prints.

use velus_common::Ident;
use velus_nlustre::dataflow::Dataflow;
use velus_nlustre::streams::{SVal, StreamSet};
use velus_ops::{CVal, ClightOps};

fn table_inputs(n: usize) -> StreamSet<ClightOps> {
    let acc = [0, 2, 4, -2, 0, 3, -3, 2];
    vec![
        acc.iter()
            .take(n)
            .map(|&v| SVal::Pres(CVal::int(v)))
            .collect(),
        (0..n).map(|_| SVal::Pres(CVal::int(5))).collect(),
    ]
}

fn int_row(eval: &mut Dataflow<'_, ClightOps>, var: &str, n: usize) -> Vec<Option<i32>> {
    (0..n)
        .map(|i| match eval.var(Ident::new(var), i).unwrap() {
            SVal::Abs => None,
            SVal::Pres(CVal::Int(v)) => Some(v),
            other => panic!("unexpected value {other:?} for {var}"),
        })
        .collect()
}

fn bool_row(eval: &mut Dataflow<'_, ClightOps>, var: &str, n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| match eval.var(Ident::new(var), i).unwrap() {
            SVal::Pres(v) => v == CVal::bool(true),
            SVal::Abs => panic!("{var} absent"),
        })
        .collect()
}

#[test]
fn the_semantic_table_of_section_2_2() {
    let source = std::fs::read_to_string(velus_repro::benchmark_path("tracker")).unwrap();
    let compiled = velus::compile(&source, Some("tracker")).unwrap();
    let n = 8;
    let mut eval = Dataflow::new(&compiled.snlustre, compiled.root, table_inputs(n)).unwrap();

    let some = |vs: &[i32]| vs.iter().map(|&v| Some(v)).collect::<Vec<_>>();

    // The rows exactly as printed in the paper.
    assert_eq!(int_row(&mut eval, "s", n), some(&[0, 2, 6, 4, 4, 7, 4, 6]));
    assert_eq!(
        int_row(&mut eval, "p", n),
        some(&[0, 2, 8, 12, 16, 23, 27, 33])
    );
    assert_eq!(
        bool_row(&mut eval, "x", n),
        vec![false, false, true, false, false, true, false, true]
    );
    // c is present only when x is true: 1, 2, 3 at instants 2, 5, 7.
    assert_eq!(
        int_row(&mut eval, "c", n),
        vec![None, None, Some(1), None, None, Some(2), None, Some(3)]
    );
    assert_eq!(int_row(&mut eval, "t", n), some(&[0, 0, 1, 1, 1, 2, 2, 3]));
    assert_eq!(int_row(&mut eval, "pt", n), some(&[0, 0, 0, 1, 1, 1, 2, 2]));
}

#[test]
fn tracker_validates_on_the_table_inputs() {
    let source = std::fs::read_to_string(velus_repro::benchmark_path("tracker")).unwrap();
    let compiled = velus::compile(&source, Some("tracker")).unwrap();
    velus::validate(&compiled, &table_inputs(8), 8).unwrap();
}

#[test]
fn figure3_counter_with_zero_init_differs_as_documented() {
    // With the figure's literal `counter(0 when x, …)` the first
    // activation yields 0, not 1 — the erratum recorded in DESIGN.md.
    let source = std::fs::read_to_string(velus_repro::benchmark_path("tracker"))
        .unwrap()
        .replace("counter(1 when x", "counter(0 when x");
    let compiled = velus::compile(&source, Some("tracker")).unwrap();
    let mut eval = Dataflow::new(&compiled.snlustre, compiled.root, table_inputs(8)).unwrap();
    assert_eq!(
        int_row(&mut eval, "c", 8),
        vec![None, None, Some(0), None, None, Some(1), None, Some(2)]
    );
}

#[test]
fn fused_obc_matches_the_section_3_3_shape() {
    // §3.3 shows the fused step of tracker: the two conditionals on x
    // merge into one, followed by the state update of pt.
    let source = std::fs::read_to_string(velus_repro::benchmark_path("tracker")).unwrap();
    let compiled = velus::compile(&source, Some("tracker")).unwrap();
    let class = &compiled.obc_fused.classes[compiled.root.index()];
    assert_eq!(class.name, Ident::new("tracker"));
    let step = class
        .method(velus_obc::ast::step_name())
        .expect("step method");
    let step = step.body.show(&step.exprs);
    // Exactly one conditional on x after fusion (unfused code has two).
    assert_eq!(step.matches("if x {").count(), 1, "{step}");
    assert!(step.contains("state(pt) := t;"), "{step}");
    // The unfused version really had two.
    let unfused = compiled.obc.classes[compiled.root.index()]
        .method(velus_obc::ast::step_name())
        .unwrap();
    let unfused = unfused.body.show(&unfused.exprs);
    assert_eq!(unfused.matches("if x {").count(), 2, "{unfused}");

    // The reset method matches the paper's listing: sub-resets plus the
    // constant state initialization.
    let reset = class
        .method(velus_obc::ast::reset_name())
        .expect("reset method");
    let reset = reset.body.show(&reset.exprs);
    assert!(reset.contains(".reset();"), "{reset}");
    assert!(reset.contains("state(pt) := 0;"), "{reset}");
}

#[test]
fn generated_c_matches_figure_9_structure() {
    let source = std::fs::read_to_string(velus_repro::benchmark_path("tracker")).unwrap();
    let compiled = velus::compile(&source, Some("tracker")).unwrap();
    let c = velus::emit_c(&compiled, velus::IoMode::Volatile);
    // Fig. 9's structural landmarks (names are sanitized: $ -> __).
    assert!(c.contains("struct tracker {"), "{c}");
    assert!(c.contains("struct tracker__step {"), "{c}");
    assert!(c.contains("struct d_integrator"), "{c}");
    assert!(
        c.contains("void tracker__step(struct tracker* self, struct tracker__step* out"),
        "{c}"
    );
    assert!(c.contains("d_integrator__step(&(*self)."), "{c}");
    assert!(c.contains("(*self).pt = (*out).t;"), "{c}");
}
