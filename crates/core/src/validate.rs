//! Translation validation: the paper's end-to-end theorem as a runtime
//! check over a finite input prefix.
//!
//! The PLDI'17 theorem states that for a node `f` with dataflow semantics
//! `G ⊢node f(xs, ys)`, the generated assembly produces an infinite trace
//! bisimilar to `⟨VLoad(xs(n)) · VStore(ys(n))⟩`. Without a proof
//! assistant we *check* the chain on executions:
//!
//! 1. the dataflow semantics of the unscheduled and the scheduled program
//!    agree (scheduling preserves semantics);
//! 2. the exposed-memory semantics (§3.2) produces the same outputs, and
//!    materializes the memory tree `M`;
//! 3. the translated Obc — unfused and fused — produces the same outputs
//!    under `reset(); step()*`, with `MemCorres_n(M, mem)` (Fig. 7)
//!    asserted before every step (Lemma 1's invariant);
//! 4. the generated Clight produces the same outputs when driven step by
//!    step, with the `staterep` separation assertion (Fig. 11) checked
//!    between the Obc memory and the Clight block memory at every
//!    boundary (the `match_states` invariant);
//! 5. a fresh Clight machine running the generated `main` produces
//!    exactly the volatile trace `⟨VLoad · VStore⟩` of the dataflow
//!    streams.
//!
//! Any disagreement is reported as [`VelusError::Validation`] naming the
//! stage and instant.

use velus_clight::generate::vol_in_name;
use velus_clight::interp::{Event, Machine, RVal};
use velus_clight::sep::staterep;
use velus_common::Ident;
use velus_nlustre::memory::Memory;
use velus_nlustre::msem::MSem;
use velus_nlustre::streams::{SVal, StreamSet};
use velus_obc::ast::{reset_name, step_name, RESET, STEP};
use velus_obc::memcorres::check_memcorres;
use velus_obc::sem::Interp;
use velus_ops::{CVal, ClightOps, Ops};

use crate::pipeline::Compiled;
use crate::VelusError;

/// One oracle pair of the differential chain: each variant names a
/// comparison the theorem requires to agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleId {
    /// Unscheduled vs scheduled dataflow semantics.
    Scheduling,
    /// Exposed-memory semantics vs dataflow outputs.
    MemorySemantics,
    /// The `MemCorres_n(M, mem)` invariant between the memory-semantics
    /// tree and the Obc memory (Fig. 7).
    MemCorres,
    /// Unfused Obc execution vs dataflow outputs.
    ObcUnfused,
    /// Fused Obc execution vs dataflow outputs.
    ObcFused,
    /// The `staterep` separation assertion between the Obc memory and
    /// the Clight block memory (Fig. 11).
    StateRep,
    /// Step-driven Clight execution vs dataflow outputs.
    Clight,
    /// The generated `main`'s volatile event trace vs
    /// `⟨VLoad(xs(n)) · VStore(ys(n))⟩`.
    VolatileTrace,
}

impl OracleId {
    /// Every oracle, in chain order.
    pub const ALL: [OracleId; 8] = [
        OracleId::Scheduling,
        OracleId::MemorySemantics,
        OracleId::MemCorres,
        OracleId::ObcUnfused,
        OracleId::ObcFused,
        OracleId::StateRep,
        OracleId::Clight,
        OracleId::VolatileTrace,
    ];

    /// The oracle's stable human-readable name (also the JSON token the
    /// campaign records use).
    pub fn name(self) -> &'static str {
        match self {
            OracleId::Scheduling => "scheduling",
            OracleId::MemorySemantics => "memory semantics",
            OracleId::MemCorres => "memcorres",
            OracleId::ObcUnfused => "obc",
            OracleId::ObcFused => "obc (fused)",
            OracleId::StateRep => "staterep",
            OracleId::Clight => "clight",
            OracleId::VolatileTrace => "volatile trace",
        }
    }
}

impl std::fmt::Display for OracleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured divergence: which oracle pair disagreed, where, and what
/// each side produced — the machine-readable form the campaign runner
/// shrinks against and serializes, replacing the old flat error string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleDivergence {
    /// The disagreeing oracle pair.
    pub oracle: OracleId,
    /// The first disagreeing instant.
    pub instant: usize,
    /// The output stream index, when the disagreement is per-output.
    pub output: Option<usize>,
    /// The reference side (the dataflow semantics / expected value).
    pub left: String,
    /// The implementation side (the later stage's value).
    pub right: String,
}

impl OracleDivergence {
    fn at(oracle: OracleId, instant: usize, left: String, right: String) -> OracleDivergence {
        OracleDivergence {
            oracle,
            instant,
            output: None,
            left,
            right,
        }
    }

    fn output(mut self, k: usize) -> OracleDivergence {
        self.output = Some(k);
        self
    }
}

impl std::fmt::Display for OracleDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} disagrees at instant {}: ",
            self.oracle.name(),
            self.instant
        )?;
        if let Some(k) = self.output {
            write!(f, "output {k}: ")?;
        }
        write!(f, "{} vs {}", self.left, self.right)
    }
}

/// The structured result of running the full oracle set: the checked
/// statistics plus the first divergence, if any. Semantic failures (a
/// generated program applying an operator outside its domain — the
/// theorem is vacuous there) are *not* divergences and stay errors of
/// [`run_oracles`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Number of instants checked before stopping.
    pub instants: usize,
    /// Number of `MemCorres` assertions checked.
    pub memcorres_checks: usize,
    /// Number of `staterep` separation assertions checked.
    pub staterep_checks: usize,
    /// Number of volatile events compared.
    pub trace_events: usize,
    /// The first disagreement of the chain, if any. `None` means every
    /// oracle pair agreed on the whole prefix.
    pub divergence: Option<OracleDivergence>,
}

impl OracleReport {
    fn new(instants: usize) -> OracleReport {
        OracleReport {
            instants,
            memcorres_checks: 0,
            staterep_checks: 0,
            trace_events: 0,
            divergence: None,
        }
    }

    /// Whether every oracle pair agreed.
    pub fn agreed(&self) -> bool {
        self.divergence.is_none()
    }

    fn diverged(mut self, d: OracleDivergence) -> OracleReport {
        self.divergence = Some(d);
        self
    }
}

/// Reads the (present) value of stream `s` at instant `i`.
fn value_at(s: &[SVal<ClightOps>], i: usize) -> Result<CVal, VelusError> {
    match s.get(i) {
        Some(SVal::Pres(v)) => Ok(*v),
        Some(SVal::Abs) => Err(VelusError::Validation(format!(
            "validation requires all-present inputs (absent at instant {i})"
        ))),
        None => Err(VelusError::Validation(format!(
            "input stream shorter than {i} instants"
        ))),
    }
}

/// Extracts the (present) values of instant `i` from a stream set into
/// `out` — the scratch-buffer form: the validation loops run this once
/// per instant per semantic model, so one hoisted buffer replaces a
/// fresh `Vec<CVal>` per instant per stream set.
fn values_at_into(
    inputs: &StreamSet<ClightOps>,
    i: usize,
    out: &mut Vec<CVal>,
) -> Result<(), VelusError> {
    out.clear();
    out.reserve(inputs.len());
    for s in inputs {
        out.push(value_at(s, i)?);
    }
    Ok(())
}

/// Runs the full oracle set on `n` instants of `inputs` and reports the
/// result structurally: statistics plus the first [`OracleDivergence`],
/// if any. The chain stops at the first divergence (later oracles would
/// compare against an already-disagreeing reference).
///
/// # Errors
///
/// Semantic failures only: the source program has no dataflow semantics
/// on these inputs (e.g. an operator applied outside its domain), the
/// theorem is vacuous, and no comparison is possible. A *disagreement*
/// between two stages is not an error — it is the payload of the
/// returned report.
pub fn run_oracles(
    c: &Compiled,
    inputs: &StreamSet<ClightOps>,
    n: usize,
) -> Result<OracleReport, VelusError> {
    let root = c.root;
    let node = c
        .snlustre
        .node(root)
        .ok_or_else(|| VelusError::Usage(format!("no node {root}")))?;
    let mut rep = OracleReport::new(n);

    // 1. Dataflow semantics, unscheduled and scheduled.
    let df = velus_nlustre::dataflow::run_node(&c.nlustre, root, inputs, n)?;
    let df_sched = velus_nlustre::dataflow::run_node(&c.snlustre, root, inputs, n)?;
    if let Some(d) = velus_first_divergence(&df, &df_sched) {
        return Ok(
            rep.diverged(OracleDivergence::at(OracleId::Scheduling, d.1, d.2, d.3).output(d.0))
        );
    }

    // 2. Exposed-memory semantics.
    let mut msem = MSem::new(&c.snlustre, root)?.recording();
    let ms_out = msem.run(inputs, n)?;
    if let Some(d) = velus_first_divergence(&df, &ms_out) {
        return Ok(rep
            .diverged(OracleDivergence::at(OracleId::MemorySemantics, d.1, d.2, d.3).output(d.0)));
    }
    let mtrace = msem.trace();

    // 3. Obc, unfused and fused, with MemCorres at every boundary.
    let mut obc_mem_boundaries: Vec<Memory<CVal>> = Vec::with_capacity(n + 1);
    let mut vals: Vec<CVal> = Vec::with_capacity(inputs.len());
    let mut outs: Vec<CVal> = Vec::new();
    for (oracle, obc) in [
        (OracleId::ObcUnfused, &c.obc),
        (OracleId::ObcFused, &c.obc_fused),
    ] {
        let record = oracle == OracleId::ObcFused;
        let mut interp = Interp::new(obc);
        let mut mem = Memory::new();
        interp.call(root, &mut mem, reset_name(), &[], &mut outs)?;
        // `i` is an instant, used against several indexed structures at
        // once — a range loop reads better than nested enumerates.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            if let Err(e) = check_memcorres(&c.snlustre, node, mtrace, i, &mem) {
                return Ok(rep.diverged(OracleDivergence::at(
                    OracleId::MemCorres,
                    i,
                    "MemCorres(M, mem)".to_owned(),
                    e.to_string(),
                )));
            }
            rep.memcorres_checks += 1;
            if record {
                obc_mem_boundaries.push(mem.clone());
            }
            values_at_into(inputs, i, &mut vals)?;
            interp.call(root, &mut mem, step_name(), &vals, &mut outs)?;
            for (k, v) in outs.iter().enumerate() {
                match &df[k][i] {
                    SVal::Pres(expected) if expected == v => {}
                    other => {
                        return Ok(rep.diverged(
                            OracleDivergence::at(oracle, i, format!("{other}"), v.to_string())
                                .output(k),
                        ))
                    }
                }
            }
        }
        if record {
            obc_mem_boundaries.push(mem.clone());
        }
    }

    // 4. Clight, driven step by step, with staterep at every boundary.
    {
        let mut machine = Machine::new(&c.clight)?;
        let selfb = machine.alloc_struct(node.name)?;
        let missing = || VelusError::Validation("missing step method".to_owned());
        let reset_fn = c.clight.method_fn(root, RESET).ok_or_else(missing)?;
        machine.call(reset_fn, &[RVal::Ptr(selfb, 0)])?;
        let step_m = c
            .obc_fused
            .classes
            .get(root.index())
            .and_then(|k| k.methods.get(STEP))
            .ok_or_else(missing)?;
        let step_fn = c.clight.method_fn(root, STEP).ok_or_else(missing)?;
        let multi = step_m.outputs.len() >= 2;
        let out_struct = velus_clight::generate::out_struct_name(node.name, step_name());
        let outb = if multi {
            Some(machine.alloc_struct(out_struct)?)
        } else {
            None
        };
        let mut args: Vec<RVal> = Vec::with_capacity(2 + inputs.len());
        for i in 0..n {
            let assertion = staterep(
                &machine.layouts,
                &c.obc_fused,
                root,
                &obc_mem_boundaries[i],
                selfb,
                0,
            )?;
            if let Err(e) = assertion.check(&machine.mem) {
                return Ok(rep.diverged(OracleDivergence::at(
                    OracleId::StateRep,
                    i,
                    "staterep(mem, blocks)".to_owned(),
                    e.to_string(),
                )));
            }
            rep.staterep_checks += 1;

            values_at_into(inputs, i, &mut vals)?;
            args.clear();
            args.push(RVal::Ptr(selfb, 0));
            if let Some(b) = outb {
                args.push(RVal::Ptr(b, 0));
            }
            args.extend(vals.iter().copied().map(RVal::Scalar));
            let ret = machine.call(step_fn, &args)?;

            // Collect the outputs.
            outs.clear();
            if multi {
                let b = outb.expect("allocated above");
                for (o, oty) in &step_m.outputs {
                    let off = machine.layouts.field_offset(out_struct, *o)?;
                    outs.push(machine.mem.load(*oty, b, off)?);
                }
            } else {
                match ret {
                    Some(RVal::Scalar(v)) => outs.push(v),
                    None => {}
                    Some(RVal::Ptr(..)) => {
                        return Ok(rep.diverged(OracleDivergence::at(
                            OracleId::Clight,
                            i,
                            "a scalar step result".to_owned(),
                            "a pointer".to_owned(),
                        )))
                    }
                }
            }
            for (k, v) in outs.iter().enumerate() {
                match &df[k][i] {
                    SVal::Pres(expected) if expected == v => {}
                    other => {
                        return Ok(rep.diverged(
                            OracleDivergence::at(
                                OracleId::Clight,
                                i,
                                format!("{other}"),
                                v.to_string(),
                            )
                            .output(k),
                        ))
                    }
                }
            }
        }
        // Final boundary.
        let assertion = staterep(
            &machine.layouts,
            &c.obc_fused,
            root,
            &obc_mem_boundaries[n],
            selfb,
            0,
        )?;
        if let Err(e) = assertion.check(&machine.mem) {
            return Ok(rep.diverged(OracleDivergence::at(
                OracleId::StateRep,
                n,
                "staterep(mem, blocks)".to_owned(),
                e.to_string(),
            )));
        }
        rep.staterep_checks += 1;
    }

    // 5. The generated main's volatile trace.
    {
        let mut machine = Machine::new(&c.clight)?;
        // The volatile globals, named once: a clock-only root reads `tick`.
        let tick = node
            .inputs
            .is_empty()
            .then(|| vol_in_name(Ident::new("tick")));
        let in_globals: Vec<Ident> = node.inputs.iter().map(|d| vol_in_name(d.name)).collect();
        let out_globals: Vec<Ident> = node
            .outputs
            .iter()
            .map(|d| velus_clight::generate::vol_out_name(d.name))
            .collect();
        if let Some(tick) = tick {
            machine.push_inputs(tick, (0..n).map(|_| CVal::bool(true)));
        }
        for (k, &g) in in_globals.iter().enumerate() {
            let stream: Vec<CVal> = (0..n)
                .map(|i| value_at(&inputs[k], i))
                .collect::<Result<_, _>>()?;
            machine.push_inputs(g, stream);
        }
        machine.run_main()?;

        // Build the expected trace.
        let per_instant = usize::from(tick.is_some()) + in_globals.len() + out_globals.len();
        let mut expected: Vec<Event> = Vec::with_capacity(n * per_instant);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            if let Some(tick) = tick {
                expected.push(Event::Load(tick, CVal::bool(true)));
            }
            values_at_into(inputs, i, &mut vals)?;
            for (&g, v) in in_globals.iter().zip(&vals) {
                expected.push(Event::Load(g, *v));
            }
            for (k, &g) in out_globals.iter().enumerate() {
                match &df[k][i] {
                    SVal::Pres(v) => expected.push(Event::Store(g, *v)),
                    SVal::Abs => {
                        return Ok(rep.diverged(
                            OracleDivergence::at(
                                OracleId::VolatileTrace,
                                i,
                                "a present root output".to_owned(),
                                "absent".to_owned(),
                            )
                            .output(k),
                        ))
                    }
                }
            }
        }
        if machine.trace != expected {
            let at = machine
                .trace
                .iter()
                .zip(&expected)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| machine.trace.len().min(expected.len()));
            let got = velus_clight::interp::render_trace(&machine.trace);
            let want = velus_clight::interp::render_trace(&expected);
            return Ok(rep.diverged(OracleDivergence::at(
                OracleId::VolatileTrace,
                at,
                format!("trace:\n{want}"),
                format!("trace:\n{got}"),
            )));
        }
        rep.trace_events = expected.len();
    }

    Ok(rep)
}

/// Locates the first disagreement between two stream sets (stream index,
/// instant, left rendering, right rendering) — a local helper so the
/// dataflow-vs-dataflow oracles report positions, not just booleans.
fn velus_first_divergence(
    a: &StreamSet<ClightOps>,
    b: &StreamSet<ClightOps>,
) -> Option<(usize, usize, String, String)> {
    if a.len() != b.len() {
        return Some((
            a.len().min(b.len()),
            0,
            format!("{} streams", a.len()),
            format!("{} streams", b.len()),
        ));
    }
    for (k, (sa, sb)) in a.iter().zip(b).enumerate() {
        for i in 0..sa.len().max(sb.len()) {
            match (sa.get(i), sb.get(i)) {
                (Some(x), Some(y)) if x == y => {}
                (x, y) => {
                    return Some((
                        k,
                        i,
                        x.map_or("<missing>".to_owned(), |v| v.to_string()),
                        y.map_or("<missing>".to_owned(), |v| v.to_string()),
                    ))
                }
            }
        }
    }
    None
}

/// Validates the full compilation chain on `n` instants of `inputs` and
/// returns the checked statistics (a report whose `divergence` is
/// `None`).
///
/// # Errors
///
/// The first stage disagreement (rendered from the structured
/// [`OracleDivergence`] of [`run_oracles`]), semantic failure (e.g. the
/// source program applies an operator outside its domain — then the
/// theorem is vacuous and validation cannot proceed), or assertion
/// violation.
pub fn validate(
    c: &Compiled,
    inputs: &StreamSet<ClightOps>,
    n: usize,
) -> Result<OracleReport, VelusError> {
    let rep = run_oracles(c, inputs, n)?;
    match rep.divergence {
        Some(d) => Err(VelusError::Validation(d.to_string())),
        None => Ok(rep),
    }
}

/// Builds simple deterministic all-present input streams for a compiled
/// program's root node: ramps for numeric inputs, alternating booleans.
/// Useful for quick CLI validation; the test suite uses the random
/// generators of `velus-testkit` instead.
pub fn default_inputs(c: &Compiled, n: usize) -> StreamSet<ClightOps> {
    let node = c.snlustre.node(c.root).expect("root exists");
    node.inputs
        .iter()
        .enumerate()
        .map(|(k, d)| {
            (0..n)
                .map(|i| {
                    let v = match d.ty {
                        velus_ops::CTy::Bool => CVal::bool((i + k) % 3 == 0),
                        velus_ops::CTy::F32 => CVal::single((i as f32) / 4.0 + k as f32),
                        velus_ops::CTy::F64 => CVal::float((i as f64) / 4.0 + k as f64),
                        velus_ops::CTy::I64 | velus_ops::CTy::U64 => {
                            CVal::long((i as i64) + (k as i64) * 10)
                        }
                        _ => {
                            let raw = (i as i64 + k as i64 * 7) % 100;
                            match ClightOps::const_of_literal(
                                &velus_ops::Literal::Int(raw as i128),
                                &d.ty,
                            ) {
                                Some(c) => c.val(),
                                None => CVal::int(0),
                            }
                        }
                    };
                    SVal::Pres(v)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;

    const COUNTER: &str = "
        node counter(ini, inc: int; res: bool) returns (n: int)
        let
          n = if (true fby false) or res then ini else (0 fby n) + inc;
        tel
    ";

    #[test]
    fn counter_validates_end_to_end() {
        let c = compile(COUNTER, None).unwrap();
        let inputs = default_inputs(&c, 20);
        let report = validate(&c, &inputs, 20).unwrap();
        assert_eq!(report.instants, 20);
        assert!(report.memcorres_checks >= 40);
        assert!(report.staterep_checks >= 21);
        // 3 loads + 1 store per instant.
        assert_eq!(report.trace_events, 80);
    }

    #[test]
    fn multi_output_nodes_validate() {
        let src = format!(
            "{COUNTER}
            node d_integrator(gamma: int) returns (speed, position: int)
            let
              speed = counter(0, gamma, false);
              position = counter(0, speed, false);
            tel"
        );
        let c = compile(&src, None).unwrap();
        let inputs = default_inputs(&c, 16);
        validate(&c, &inputs, 16).unwrap();
    }

    #[test]
    fn sampled_programs_validate() {
        let src = "
            node sub(i: int) returns (o: int)
            let o = (0 fby o) + i; tel
            node top(k: bool; x: int) returns (y: int)
            var s: int when k;
            let
              s = sub(x when k);
              y = merge k s ((0 fby y) when not k);
            tel
        ";
        let c = compile(src, None).unwrap();
        let inputs = default_inputs(&c, 24);
        validate(&c, &inputs, 24).unwrap();
    }

    #[test]
    fn inputless_nodes_validate_via_tick() {
        let src = "
            node blink() returns (b: bool)
            let b = true fby (not b); tel
        ";
        let c = compile(src, None).unwrap();
        validate(&c, &vec![], 8).unwrap();
    }

    #[test]
    fn undefined_operations_are_reported_not_miscompiled() {
        let src = "
            node divider(x: int) returns (y: int)
            let y = 100 / x; tel
        ";
        let c = compile(src, None).unwrap();
        // x ramps from 0: division by zero at instant 0.
        let inputs = default_inputs(&c, 4);
        let err = validate(&c, &inputs, 4).unwrap_err();
        match err {
            VelusError::Sem(velus_nlustre::SemError::UndefinedOperation(_)) => {}
            other => panic!("expected an undefined-operation error, got {other}"),
        }
    }

    #[test]
    fn first_divergence_locates_the_first_disagreement() {
        let ints = |vs: &[i32]| -> Vec<SVal<ClightOps>> {
            vs.iter().map(|&v| SVal::Pres(CVal::int(v))).collect()
        };
        let first =
            |a: StreamSet<ClightOps>, b: StreamSet<ClightOps>| velus_first_divergence(&a, &b);
        let at = |k, i, left: &str, right: &str| Some((k, i, left.to_owned(), right.to_owned()));
        // Equal sets, empty sets and absent ticks agree.
        assert_eq!(first(vec![ints(&[1])], vec![ints(&[1])]), None);
        assert_eq!(first(vec![], vec![]), None);
        assert_eq!(first(vec![vec![SVal::Abs]], vec![vec![SVal::Abs]]), None);
        // The first differing instant; an absent tick against a present
        // value; the first instant only one side has; the first stream
        // only one side has, with the counts mirrored.
        let abs_then = |v| vec![vec![SVal::Abs, v]];
        assert_eq!(
            first(vec![ints(&[1, 2])], vec![ints(&[1, 3])]),
            at(0, 1, "2", "3")
        );
        assert_eq!(
            first(abs_then(SVal::Abs), abs_then(SVal::Pres(CVal::int(0)))),
            at(0, 1, ".", "0")
        );
        assert_eq!(
            first(vec![ints(&[7, 8, 9])], vec![ints(&[7, 8])]),
            at(0, 2, "9", "<missing>")
        );
        let (one, two) = (vec![ints(&[1])], vec![ints(&[1]), ints(&[2])]);
        assert_eq!(
            first(one.clone(), two.clone()),
            at(1, 0, "1 streams", "2 streams")
        );
        assert_eq!(first(two, one), at(1, 0, "2 streams", "1 streams"));
        // Floats compare bit-exactly: NaN agrees with NaN, -0.0 differs
        // from 0.0.
        let float = |v: f64| vec![vec![SVal::Pres(CVal::float(v))]];
        assert_eq!(first(float(f64::NAN), float(f64::NAN)), None);
        let d = first(float(0.0), float(-0.0)).expect("-0.0 differs from 0.0");
        assert_eq!((d.0, d.1), (0, 0));
    }
}
