//! Property test: Algorithm 2 derives the same control relation in every
//! mode.
//!
//! Each case is a seeded random shareholding registry (50–600 nodes, varied
//! person share and cross-ownership). The generator labels businesses
//! `[Business, Person]`; the case relabels a seeded share of them as
//! `[Person, Business]`, so the loader's per-label-set schema table meets
//! both orders of the same set, and the `pid` attribute businesses inherit
//! from `Person`. Single-pass and staged materialization must both write
//! exactly the control pairs of the independent baseline algorithm.
//!
//! Runs under the in-workspace harness (`kgm_runtime::prop`): a failure
//! shrinks the registry and prints the seed to reproduce it
//! (`KGM_PROP_SEED`, `KGM_PROP_CASES`).

use kgm_runtime::prop::{check, CaseError, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgmodel::core::intensional::{materialize, MaterializationMode};
use kgmodel::finance::control::{baseline_control, CONTROL_METALOG};
use kgmodel::finance::generator::{generate_shareholding, ShareholdingConfig};
use kgmodel::finance::schema::simple_ownership_schema;
use kgmodel::pgstore::{NodeId, PropertyGraph};
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
struct Case {
    nodes: usize,
    person_fraction: f64,
    cross_ownership: f64,
    seed: u64,
    /// Share of businesses relabelled `[Person, Business]`.
    swapped: f64,
}

fn gen(rng: &mut Rng) -> Case {
    Case {
        nodes: rng.gen_range(50usize..601),
        person_fraction: rng.gen_range(0.1f64..0.7),
        cross_ownership: *rng.choose(&[0.0, 0.01, 0.05, 0.2]).expect("nonempty"),
        seed: rng.next_u64(),
        swapped: rng.gen_range(0.0f64..1.0),
    }
}

/// Smaller registries first, then simpler knobs.
fn shrink(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for nodes in [case.nodes / 2, case.nodes - 1] {
        if nodes >= 1 && nodes < case.nodes {
            out.push(Case {
                nodes,
                ..case.clone()
            });
        }
    }
    if case.cross_ownership != 0.0 {
        out.push(Case {
            cross_ownership: 0.0,
            ..case.clone()
        });
    }
    for swapped in [0.0, 1.0] {
        if case.swapped != swapped {
            out.push(Case {
                swapped,
                ..case.clone()
            });
        }
    }
    out
}

/// The case's registry: the generated graph, rebuilt in the same order
/// with a seeded share of the businesses' two labels reversed.
fn registry(case: &Case) -> PropertyGraph {
    let g = generate_shareholding(&ShareholdingConfig {
        nodes: case.nodes,
        person_fraction: case.person_fraction,
        cross_ownership: case.cross_ownership,
        seed: case.seed,
        ..Default::default()
    })
    .expect("generator");
    let mut rng = Rng::seed_from_u64(case.seed ^ 0x5157_4150);
    let mut out = PropertyGraph::new();
    let mut to_out: Vec<Option<NodeId>> = Vec::new();
    for n in g.nodes() {
        let mut labels = g.node_labels(n);
        if labels.len() > 1 && rng.gen_bool(case.swapped) {
            labels.reverse();
        }
        let id = out.add_node(labels, g.node_props(n)).expect("add node");
        to_out.resize(n.0 as usize + 1, None);
        to_out[n.0 as usize] = Some(id);
    }
    let map = |n: NodeId| to_out[n.0 as usize].expect("edge endpoints are nodes");
    for e in g.edges() {
        let (f, t) = g.edge_endpoints(e);
        out.add_edge(map(f), map(t), &g.edge_label(e), g.edge_props(e))
            .expect("add edge");
    }
    out
}

/// Non-reflexive `CONTROLS` edges as (controller, controlled) OID payloads.
fn control_pairs(g: &PropertyGraph) -> BTreeSet<(u64, u64)> {
    g.edges_with_label("CONTROLS")
        .into_iter()
        .filter_map(|e| {
            let (f, t) = g.edge_endpoints(e);
            (f != t).then(|| (g.node_oid(f).payload(), g.node_oid(t).payload()))
        })
        .collect()
}

fn modes_agree(case: &Case) -> CaseResult {
    let schema = simple_ownership_schema().map_err(|e| CaseError::fail(e.to_string()))?;
    let baseline: BTreeSet<(u64, u64)> = baseline_control(&registry(case)).into_iter().collect();
    for mode in [MaterializationMode::SinglePass, MaterializationMode::Staged] {
        let mut g = registry(case);
        let stats = materialize(&mut g, &schema, CONTROL_METALOG, mode)
            .map_err(|e| CaseError::fail(format!("{mode:?}: {e}")))?;
        if !stats.termination.is_complete() {
            return Err(CaseError::fail(format!(
                "{mode:?}: {:?}",
                stats.termination
            )));
        }
        let got = control_pairs(&g);
        if got != baseline {
            let missing: Vec<_> = baseline.difference(&got).take(5).collect();
            let extra: Vec<_> = got.difference(&baseline).take(5).collect();
            return Err(CaseError::fail(format!(
                "{mode:?}: {} control pairs, baseline {}; missing {missing:?}, extra {extra:?}",
                got.len(),
                baseline.len()
            )));
        }
    }
    Ok(())
}

#[test]
fn single_pass_staged_and_baseline_agree_on_random_registries() {
    check(
        "algorithm2_modes::single_pass_staged_and_baseline_agree_on_random_registries",
        &Config::with_cases(32),
        gen,
        shrink,
        modes_agree,
    );
}
