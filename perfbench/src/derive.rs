//! Re-derives the reference optima recorded in `manifest.json`.
//!
//! Every value comes from a certified ladder (`jobs = 1`): each UNSAT rung
//! below the optimum carries a DRAT refutation accepted by
//! `mm_sat::drat::check`, and the witness passes the device checker. The
//! strata of the 3-input classes pair classes of adjacent cold-solve time
//! (the `service` miss path), measured here as the median of three solves.

use std::collections::BTreeMap;
use std::time::Instant;

use mm_boolfn::npn::canonicalize;
use mm_boolfn::{MultiOutputFn, TruthTable};
use mm_synth::optimize::{OptimizeReport, SynthResultKind};
use mm_synth::request::MinimizeRequest;
use mm_synth::{EncodeOptions, Synthesizer};

use crate::check::simulate_on_device;
use crate::manifest::{named_function, Manifest};
use crate::measure::median;

/// The certified optimum of `f` as manifest JSON, or why none holds.
fn certified_optimum(
    request: &MinimizeRequest,
    f: &MultiOutputFn,
) -> Result<(String, OptimizeReport), String> {
    let request = MinimizeRequest {
        certify: true,
        ..request.clone()
    };
    let report = request
        .run(&Synthesizer::new(), f, &EncodeOptions::recommended(), 1)
        .map_err(|e| e.to_string())?;
    let best = report.best.as_ref().ok_or("no witness")?;
    if !report.proven_optimal || report.status.is_degraded() {
        return Err("optimum not proven".into());
    }
    if report
        .calls
        .iter()
        .any(|c| c.result == SynthResultKind::Unrealizable && !c.certified)
    {
        return Err("an UNSAT rung is uncertified".into());
    }
    simulate_on_device(f, best)?;
    let m = best.metrics();
    Ok((
        format!(
            r#"{{"n_rops": {}, "n_legs": {}, "n_vsteps": {}}}"#,
            m.n_rops, m.n_legs, m.n_vsteps
        ),
        report,
    ))
}

/// Prints the `functions` and `classes` arrays of `manifest.json`.
///
/// # Errors
///
/// Any function whose optimum cannot be certified.
pub fn derive_expected() -> Result<(), String> {
    let manifest = Manifest::load();
    let shape = manifest.ladder;
    let mut names: Vec<&str> = manifest
        .workloads
        .iter()
        .filter(|w| w.name != "service")
        .flat_map(|w| w.suite.iter().map(String::as_str))
        .collect();
    names.sort_unstable();
    names.dedup();
    let adder = MinimizeRequest::mixed_mode(shape.max_rops, shape.max_vsteps, true);
    let plain = MinimizeRequest::mixed_mode(shape.max_rops, shape.max_vsteps, false);
    println!("\"functions\": [");
    for (i, name) in names.iter().enumerate() {
        let f = named_function(name).ok_or_else(|| format!("unknown function {name}"))?;
        let request = if name.starts_with("adder") {
            &adder
        } else {
            &plain
        };
        let (optimum, report) =
            certified_optimum(request, &f).map_err(|e| format!("{name}: {e}"))?;
        let refuted = report
            .calls
            .iter()
            .filter(|c| c.result == SynthResultKind::Unrealizable)
            .count();
        let sep = if i + 1 < names.len() { "," } else { "" };
        println!(
            r#"  {{"name": "{name}", "optimum": {optimum}, "evidence": "certified ladder: {refuted} cheaper rungs DRAT-refuted"}}{sep}"#
        );
    }
    println!("],");

    let mut classes: BTreeMap<String, MultiOutputFn> = BTreeMap::new();
    for word in 0..256u64 {
        let tt = TruthTable::from_packed(3, word).map_err(|e| e.to_string())?;
        let f = MultiOutputFn::new("fn3", vec![tt]).map_err(|e| e.to_string())?;
        let (canonical, _) = canonicalize(&f);
        classes.insert(canonical.outputs()[0].to_bitstring(), canonical);
    }
    let mut rows = Vec::new();
    for (table, canonical) in &classes {
        let (optimum, _) =
            certified_optimum(&plain, canonical).map_err(|e| format!("class {table}: {e}"))?;
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let report = plain.run(
                    &Synthesizer::new(),
                    canonical,
                    &EncodeOptions::recommended(),
                    1,
                );
                std::hint::black_box(report.is_ok());
                t.elapsed().as_secs_f64()
            })
            .collect();
        rows.push((median(&times), table.clone(), optimum));
    }
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    println!("\"classes\": [");
    for (rank, (secs, table, optimum)) in rows.iter().enumerate() {
        let sep = if rank + 1 < rows.len() { "," } else { "" };
        println!(
            r#"  {{"table": "{table}", "optimum": {optimum}, "stratum": {}, "cold_solve_ms": {:.1}}}{sep}"#,
            rank / 2,
            secs * 1e3
        );
    }
    println!("]");
    Ok(())
}
