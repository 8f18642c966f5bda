//! Instance-level super-constructs (Figure 9) and instance loading.
//!
//! Section 6 extends the super-model dictionary with an `I_C` instance
//! counterpart for every super-construct `C`, connected to it by
//! `SM_REFERENCES` edges. Loading a database instance `D` into these
//! *super-components* is the quasi-inverse step of Algorithm 2 (line 4):
//! since information loss can only happen in the *elimination* phase of a
//! mapping, the *copy* phase is invertible by construction, and
//! `(V(M).copy)⁻¹` reads the data back into the super-model.
//!
//! For the PG model the copy phase is label/attribute renaming, so the
//! quasi-inverse resolves each data node to its most specific `SM_Node`
//! (the label with the longest ancestor chain among the node's labels) and
//! attaches one `I_SM_Attribute` per schema-known property.

use crate::dictionary::Dictionary;
use crate::supermodel::SuperSchema;
use kgm_common::{FxHashMap, KgmError, Oid, Result, Symbol, Value};
use kgm_pgstore::{Direction, NodeId, PropertyGraph};
use std::collections::hash_map::Entry;

/// Statistics of one instance load.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// `I_SM_Node`s created.
    pub nodes: usize,
    /// `I_SM_Edge`s created.
    pub edges: usize,
    /// `I_SM_Attribute`s created.
    pub attributes: usize,
    /// Data nodes skipped because no schema label matched.
    pub skipped_nodes: usize,
    /// Data edges skipped because no schema edge type matched.
    pub skipped_edges: usize,
}

/// The correspondence between a loaded instance and the source data graph.
#[derive(Debug, Default)]
pub struct InstanceMap {
    /// Data node → `I_SM_Node` dictionary node.
    pub node_to_instance: FxHashMap<NodeId, NodeId>,
    /// `I_SM_Node` dictionary OID → data node.
    pub instance_to_node: FxHashMap<Oid, NodeId>,
}

/// The dictionary side of one data label (set): the `SM_*` construct its
/// elements reference and the schema-known attributes to copy, keyed by the
/// data graph's property symbol. Attributes whose name no data element
/// carries (the key was never interned in the data graph) are left out: no
/// element can have them.
struct Kind {
    construct: NodeId,
    attrs: Vec<(Symbol, NodeId)>,
}

impl Kind {
    fn new(dict: &Dictionary, data: &PropertyGraph, construct: NodeId, attrs: Vec<NodeId>) -> Kind {
        let attrs = attrs
            .into_iter()
            .filter_map(|a| {
                let name = dict.graph.node_prop(a, "name")?.to_string();
                Some((data.interner().get(&name)?, a))
            })
            .collect();
        Kind { construct, attrs }
    }
}

/// Resolve the `SM_Node` and attribute list of one data node label set:
/// the most specific schema label wins, and inherited attributes (those of
/// its ancestors) follow its own. `None` if no label is a schema node.
fn node_kind(
    dict: &Dictionary,
    schema: &SuperSchema,
    schema_oid: i64,
    data: &PropertyGraph,
    labels: &[Symbol],
) -> Result<Option<Kind>> {
    let labels: Vec<String> = labels.iter().map(|&l| data.sym_name(l)).collect();
    let Some(best) = labels
        .iter()
        .filter(|l| schema.node(l).is_some())
        .max_by_key(|l| schema.ancestors(l).len())
    else {
        return Ok(None);
    };
    let sm_node = dict
        .sm_node_by_name(best, schema_oid)
        .ok_or_else(|| KgmError::NotFound(format!("SM_Node `{best}` in dictionary")))?;
    let mut attrs = dict.attributes_of(sm_node, "SM_HAS_NODE_ATTR");
    for anc in schema.ancestors(best) {
        if let Some(anc_node) = dict.sm_node_by_name(anc, schema_oid) {
            attrs.extend(dict.attributes_of(anc_node, "SM_HAS_NODE_ATTR"));
        }
    }
    Ok(Some(Kind::new(dict, data, sm_node, attrs)))
}

/// Load a data graph (an instance of the PG schema generated from
/// `schema`) into instance-level constructs inside `dict`.
///
/// The schema is resolved once per distinct node label set and per edge
/// label, not per element, and every insert goes through the dictionary's
/// symbol-taking path with its vocabulary interned up front.
pub fn load_instance(
    dict: &mut Dictionary,
    schema: &SuperSchema,
    schema_oid: i64,
    instance_oid: i64,
    data: &PropertyGraph,
) -> Result<(LoadStats, InstanceMap)> {
    let mut stats = LoadStats::default();
    let mut map = InstanceMap::default();
    let iv = Value::Int(instance_oid);
    let sym = |s: &str| dict.graph.sym(s);
    let (i_node, i_edge, i_attr) = (sym("I_SM_Node"), sym("I_SM_Edge"), sym("I_SM_Attribute"));
    let (instance_key, src_key, value_key) = (sym("instanceOID"), sym("srcOID"), sym("value"));
    let refs = sym("SM_REFERENCES");
    let (has_nattr, has_eattr) = (sym("I_SM_HAS_NODE_ATTR"), sym("I_SM_HAS_EDGE_ATTR"));
    let (from, to) = (sym("I_SM_FROM"), sym("I_SM_TO"));

    // Per node label set (as stored, so label order is part of the key).
    let mut node_kinds: FxHashMap<Vec<Symbol>, Option<Kind>> = FxHashMap::default();
    for n in data.nodes() {
        let labels = data.node_label_syms(n);
        if !node_kinds.contains_key(labels) {
            let kind = node_kind(dict, schema, schema_oid, data, labels)?;
            node_kinds.insert(labels.to_vec(), kind);
        }
        let Some(kind) = &node_kinds[labels] else {
            stats.skipped_nodes += 1;
            continue;
        };
        let g = &mut dict.graph;
        let inode = g.add_node_syms(
            vec![i_node],
            vec![
                (instance_key, iv.clone()),
                (src_key, Value::Oid(data.node_oid(n))),
            ],
        )?;
        g.add_edge_sym(inode, kind.construct, refs, Vec::new())?;
        stats.nodes += 1;
        map.node_to_instance.insert(n, inode);
        map.instance_to_node.insert(g.node_oid(inode), n);
        for &(key, attr) in &kind.attrs {
            if let Some(value) = data.node_prop_sym(n, key) {
                let ia = g.add_node_syms(
                    vec![i_attr],
                    vec![(instance_key, iv.clone()), (value_key, value.clone())],
                )?;
                g.add_edge_sym(inode, ia, has_nattr, Vec::new())?;
                g.add_edge_sym(ia, attr, refs, Vec::new())?;
                stats.attributes += 1;
            }
        }
    }

    let mut edge_kinds: FxHashMap<Symbol, Option<Kind>> = FxHashMap::default();
    for e in data.edges() {
        let kind = match edge_kinds.entry(data.edge_label_sym(e)) {
            Entry::Occupied(kind) => kind.into_mut(),
            Entry::Vacant(slot) => {
                let kind = dict
                    .sm_edge_by_name(&data.sym_name(*slot.key()), schema_oid)
                    .map(|sm_edge| {
                        let attrs = dict.attributes_of(sm_edge, "SM_HAS_EDGE_ATTR");
                        Kind::new(dict, data, sm_edge, attrs)
                    });
                slot.insert(kind)
            }
        };
        let Some(kind) = kind else {
            stats.skipped_edges += 1;
            continue;
        };
        let (f, t) = data.edge_endpoints(e);
        let (Some(&fi), Some(&ti)) = (
            map.node_to_instance.get(&f),
            map.node_to_instance.get(&t),
        ) else {
            stats.skipped_edges += 1;
            continue;
        };
        let g = &mut dict.graph;
        let iedge = g.add_node_syms(
            vec![i_edge],
            vec![
                (instance_key, iv.clone()),
                (src_key, Value::Oid(data.edge_oid(e))),
            ],
        )?;
        g.add_edge_sym(iedge, kind.construct, refs, Vec::new())?;
        g.add_edge_sym(iedge, fi, from, Vec::new())?;
        g.add_edge_sym(iedge, ti, to, Vec::new())?;
        stats.edges += 1;
        for &(key, attr) in &kind.attrs {
            if let Some(value) = data.edge_prop_sym(e, key) {
                let ia = g.add_node_syms(
                    vec![i_attr],
                    vec![(instance_key, iv.clone()), (value_key, value.clone())],
                )?;
                g.add_edge_sym(iedge, ia, has_eattr, Vec::new())?;
                g.add_edge_sym(ia, attr, refs, Vec::new())?;
                stats.attributes += 1;
            }
        }
    }
    Ok((stats, map))
}

/// Flush the instance constructs of `instance_oid` back into a fresh data
/// graph (the inverse of [`load_instance`]; applying load ∘ flush is the
/// quasi-inverse round trip of Section 6).
pub fn flush_instance(
    dict: &Dictionary,
    schema: &SuperSchema,
    instance_oid: i64,
) -> Result<PropertyGraph> {
    let g = &dict.graph;
    let iv = Value::Int(instance_oid);
    let mut out = PropertyGraph::new();
    let mut inode_to_out: FxHashMap<NodeId, NodeId> = FxHashMap::default();

    let referenced_construct = |i: NodeId| -> Option<NodeId> {
        g.incident_edges(i, Direction::Outgoing)
            .into_iter()
            .filter(|&e| g.edge_label(e) == "SM_REFERENCES")
            .map(|e| g.edge_endpoints(e).1)
            .next()
    };

    for i in g.nodes_with_label("I_SM_Node") {
        if g.node_prop(i, "instanceOID") != Some(&iv) {
            continue;
        }
        let sm = referenced_construct(i)
            .ok_or_else(|| KgmError::Schema("I_SM_Node without SM_REFERENCES".into()))?;
        let tyname = dict
            .type_name(sm, "SM_HAS_NODE_TYPE")
            .ok_or_else(|| KgmError::Schema("SM_Node without type".into()))?;
        // Multi-label strategy on flush: own type + ancestors.
        let mut labels = vec![tyname.clone()];
        labels.extend(schema.ancestors(&tyname).iter().map(|s| s.to_string()));
        // Collect attribute values.
        let mut node_props: Vec<(String, Value)> = Vec::new();
        for e in g.incident_edges(i, Direction::Outgoing) {
            if g.edge_label(e) != "I_SM_HAS_NODE_ATTR" {
                continue;
            }
            let ia = g.edge_endpoints(e).1;
            let Some(attr) = referenced_construct(ia) else {
                continue;
            };
            let (Some(name), Some(value)) =
                (g.node_prop(attr, "name"), g.node_prop(ia, "value"))
            else {
                continue;
            };
            node_props.push((name.to_string(), value.clone()));
        }
        let new = out.add_node(labels, node_props)?;
        inode_to_out.insert(i, new);
    }

    for ie in g.nodes_with_label("I_SM_Edge") {
        if g.node_prop(ie, "instanceOID") != Some(&iv) {
            continue;
        }
        let sm = referenced_construct(ie)
            .ok_or_else(|| KgmError::Schema("I_SM_Edge without SM_REFERENCES".into()))?;
        let tyname = dict
            .type_name(sm, "SM_HAS_EDGE_TYPE")
            .ok_or_else(|| KgmError::Schema("SM_Edge without type".into()))?;
        let endpoint = |label: &str| -> Result<NodeId> {
            g.incident_edges(ie, Direction::Outgoing)
                .into_iter()
                .filter(|&e| g.edge_label(e) == label)
                .map(|e| g.edge_endpoints(e).1)
                .next()
                .and_then(|n| inode_to_out.get(&n).copied())
                .ok_or_else(|| KgmError::Schema(format!("I_SM_Edge without {label}")))
        };
        let mut edge_props: Vec<(String, Value)> = Vec::new();
        for e in g.incident_edges(ie, Direction::Outgoing) {
            if g.edge_label(e) != "I_SM_HAS_EDGE_ATTR" {
                continue;
            }
            let ia = g.edge_endpoints(e).1;
            let Some(attr) = referenced_construct(ia) else {
                continue;
            };
            let (Some(name), Some(value)) =
                (g.node_prop(attr, "name"), g.node_prop(ia, "value"))
            else {
                continue;
            };
            edge_props.push((name.to_string(), value.clone()));
        }
        out.add_edge(endpoint("I_SM_FROM")?, endpoint("I_SM_TO")?, &tyname, edge_props)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsl::parse_gsl;

    fn schema() -> SuperSchema {
        parse_gsl(
            r#"
            schema S {
              node Person { id fiscalCode: string; name: string; }
              node PhysicalPerson { gender: string; }
              generalization Person -> PhysicalPerson;
              node Share { id shareId: string; percentage: float; }
              edge HOLDS: Person -> Share { right: string; }
            }
            "#,
        )
        .unwrap()
    }

    fn data() -> PropertyGraph {
        let mut d = PropertyGraph::new();
        let p = d
            .add_node(
                ["PhysicalPerson", "Person"],
                vec![
                    ("fiscalCode".to_string(), Value::str("AAA")),
                    ("name".to_string(), Value::str("Ada")),
                    ("gender".to_string(), Value::str("female")),
                ],
            )
            .unwrap();
        let s = d
            .add_node(
                ["Share"],
                vec![
                    ("shareId".to_string(), Value::str("S1")),
                    ("percentage".to_string(), Value::Float(1.0)),
                ],
            )
            .unwrap();
        d.add_edge(p, s, "HOLDS", vec![("right".to_string(), Value::str("ownership"))])
            .unwrap();
        d
    }

    fn loaded() -> (Dictionary, SuperSchema) {
        let schema = schema();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 1).unwrap();
        let (stats, _) = load_instance(&mut dict, &schema, 1, 100, &data()).unwrap();
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.edges, 1);
        // fiscalCode, name, gender, shareId, percentage, right = 6.
        assert_eq!(stats.attributes, 6);
        assert_eq!(stats.skipped_nodes, 0);
        (dict, schema)
    }

    #[test]
    fn load_creates_instance_constructs() {
        let (dict, _) = loaded();
        assert_eq!(dict.graph.nodes_with_label("I_SM_Node").len(), 2);
        assert_eq!(dict.graph.nodes_with_label("I_SM_Edge").len(), 1);
        assert_eq!(dict.graph.nodes_with_label("I_SM_Attribute").len(), 6);
    }

    #[test]
    fn most_specific_label_wins() {
        let (dict, _) = loaded();
        // The person instance must reference PhysicalPerson, not Person.
        let inode = dict.graph.nodes_with_label("I_SM_Node")[0];
        let sm = dict
            .graph
            .incident_edges(inode, Direction::Outgoing)
            .into_iter()
            .filter(|&e| dict.graph.edge_label(e) == "SM_REFERENCES")
            .map(|e| dict.graph.edge_endpoints(e).1)
            .next()
            .unwrap();
        assert_eq!(
            dict.type_name(sm, "SM_HAS_NODE_TYPE").as_deref(),
            Some("PhysicalPerson")
        );
    }

    #[test]
    fn flush_round_trips_the_instance() {
        let (dict, schema) = loaded();
        let out = flush_instance(&dict, &schema, 100).unwrap();
        assert_eq!(out.node_count(), 2);
        assert_eq!(out.edge_count(), 1);
        let people = out.nodes_with_label("PhysicalPerson");
        assert_eq!(people.len(), 1);
        assert!(out.node_has_label(people[0], "Person"), "ancestor labels restored");
        assert_eq!(
            out.node_prop(people[0], "gender"),
            Some(&Value::str("female"))
        );
        assert_eq!(
            out.node_prop(people[0], "fiscalCode"),
            Some(&Value::str("AAA"))
        );
        let holds = out.edges_with_label("HOLDS");
        assert_eq!(holds.len(), 1);
        assert_eq!(
            out.edge_prop(holds[0], "right"),
            Some(&Value::str("ownership"))
        );
    }

    #[test]
    fn unknown_labels_are_counted_not_fatal() {
        let schema = schema();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 1).unwrap();
        let mut d = data();
        d.add_node(["Mystery"], vec![]).unwrap();
        let (stats, _) = load_instance(&mut dict, &schema, 1, 100, &d).unwrap();
        assert_eq!(stats.skipped_nodes, 1);
        assert_eq!(stats.nodes, 2);
    }

    #[test]
    fn instances_are_separated_by_instance_oid() {
        let schema = schema();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 1).unwrap();
        load_instance(&mut dict, &schema, 1, 100, &data()).unwrap();
        load_instance(&mut dict, &schema, 1, 200, &data()).unwrap();
        let a = flush_instance(&dict, &schema, 100).unwrap();
        let b = flush_instance(&dict, &schema, 200).unwrap();
        assert_eq!(a.node_count(), 2);
        assert_eq!(b.node_count(), 2);
        let all = flush_instance(&dict, &schema, 999).unwrap();
        assert_eq!(all.node_count(), 0);
    }
}
