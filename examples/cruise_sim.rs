//! Simulates the cruise-control benchmark over a driving scenario using
//! the instant-by-instant memory semantics (§3.2) — the model a control
//! engineer would step through.
//!
//! ```text
//! cargo run --example cruise_sim
//! ```

use velus_nlustre::msem::MSem;
use velus_nlustre::streams::SVal;
use velus_ops::{CVal, ClightOps};

fn bool_v(b: bool) -> SVal<ClightOps> {
    SVal::Pres(CVal::bool(b))
}

fn real_v(x: f64) -> SVal<ClightOps> {
    SVal::Pres(CVal::float(x))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = std::fs::read_to_string(velus_repro::benchmark_path("cruise"))?;
    let compiled = velus::compile(&source, Some("cruise"))?;
    let mut sim = MSem::new(&compiled.snlustre, compiled.root)?;

    println!("instant | onoff brake | speed  -> throttle active");
    let mut speed = 20.0f64;
    for i in 0..30usize {
        // Scenario: engage at 5, ask for more speed 10..14, brake at 22.
        let onoff = i == 5;
        let brake = i == 22;
        let faster = (10..14).contains(&i);
        // inputs: onoff, brake, faster, slower, speed
        let outs = sim.step(&[
            bool_v(onoff),
            bool_v(brake),
            bool_v(faster),
            bool_v(false),
            real_v(speed),
        ])?;
        let throttle = match &outs[0] {
            SVal::Pres(CVal::Float(x)) => *x,
            other => panic!("unexpected throttle {other:?}"),
        };
        let active = matches!(&outs[1], SVal::Pres(v) if *v == CVal::bool(true));
        // A toy plant: speed follows throttle with drag.
        speed += throttle * 0.05 - (speed - 18.0) * 0.02;
        println!(
            "{i:>7} | {:>5} {:>5} | {speed:>6.2} -> {throttle:>8.3} {active}",
            onoff as u8, brake as u8
        );
    }
    Ok(())
}
