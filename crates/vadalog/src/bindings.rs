//! `@input` / `@output` source bindings.
//!
//! Section 4: *"the atoms deriving from MetaLog PG node and edge atoms are
//! populated from the input sources via automatically generated annotations
//! of the form `@input(atom, query)`"*. A binding couples a predicate with a
//! source specification; the [`SourceRegistry`] resolves the named source
//! (a property graph or a relational catalog) and loads facts with the exact
//! tuple shapes of the PG-to-relational mapping (Section 4, step (1)):
//!
//! - node scans produce `L(oid, f1, ..., fn)`;
//! - edge scans produce `L(oid, from_oid, to_oid, f1, ..., fm)`.
//!
//! For display (and fidelity to Example 4.4) each PG binding also carries
//! the equivalent Cypher fragment, which `kgm-pgstore::cypher` can parse and
//! run.

use kgm_common::{FxHashMap, KgmError, Oid, OidSpace, Result, Symbol, Value};
use kgm_pgstore::{EdgeId, NodeId, PropertyGraph};
use kgm_relstore::{Catalog, Row};
use std::sync::Arc;

/// The reserved labelled null standing for an absent optional property.
pub fn absent() -> Value {
    Value::Oid(Oid::new(OidSpace::Null, 0))
}

/// Where a predicate's facts come from.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSource {
    /// Facts are supplied programmatically via [`crate::engine::FactDb`].
    Facts,
    /// Scan `label`-nodes of the named graph; tuple = `(oid, props...)`.
    PgNodes {
        /// Registered graph name.
        graph: String,
        /// Node label to scan.
        label: String,
        /// Property names, in tuple order.
        props: Vec<String>,
    },
    /// Scan `label`-edges of the named graph;
    /// tuple = `(oid, from_oid, to_oid, props...)`.
    PgEdges {
        /// Registered graph name.
        graph: String,
        /// Edge label to scan.
        label: String,
        /// Property names, in tuple order.
        props: Vec<String>,
    },
    /// Scan a relational table; tuple = row (NULLs become [`absent`]).
    RelTable {
        /// Registered catalog name.
        catalog: String,
        /// Table to scan.
        table: String,
    },
}

/// One `@input` annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct InputBinding {
    /// Bound predicate.
    pub predicate: String,
    /// Source specification.
    pub source: InputSource,
}

impl InputBinding {
    /// The Cypher/SQL text the paper would print for this binding
    /// (Example 4.4), e.g. `(n:SM_Node) return n`.
    pub fn display_query(&self) -> String {
        match &self.source {
            InputSource::Facts => "<in-memory facts>".to_string(),
            InputSource::PgNodes { label, .. } => format!("(n:{label}) return n"),
            InputSource::PgEdges { label, .. } => {
                format!("(a)-[e:{label}]->(b) return (e,a,b)")
            }
            InputSource::RelTable { table, .. } => format!("select * from {table}"),
        }
    }
}

/// One `@output` annotation: the predicate is part of the reasoning result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputBinding {
    /// Output predicate.
    pub predicate: String,
}

/// A named collection of data sources resolvable by bindings.
#[derive(Default, Clone)]
pub struct SourceRegistry {
    graphs: FxHashMap<String, Arc<PropertyGraph>>,
    catalogs: FxHashMap<String, Arc<Catalog>>,
}

impl SourceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        SourceRegistry::default()
    }

    /// Register a property graph under `name`.
    pub fn add_graph(&mut self, name: impl Into<String>, g: Arc<PropertyGraph>) {
        self.graphs.insert(name.into(), g);
    }

    /// Register a relational catalog under `name`.
    pub fn add_catalog(&mut self, name: impl Into<String>, c: Arc<Catalog>) {
        self.catalogs.insert(name.into(), c);
    }

    /// Look up a graph.
    pub fn graph(&self, name: &str) -> Result<&Arc<PropertyGraph>> {
        self.graphs
            .get(name)
            .ok_or_else(|| KgmError::NotFound(format!("graph source `{name}`")))
    }

    /// Look up a catalog.
    pub fn catalog(&self, name: &str) -> Result<&Arc<Catalog>> {
        self.catalogs
            .get(name)
            .ok_or_else(|| KgmError::NotFound(format!("catalog source `{name}`")))
    }

    /// Resolve one binding against its source for a borrowing scan: the
    /// element list is taken and the property keys are resolved to the
    /// graph's symbols once, but no row is built until
    /// [`Scan::for_each`] hands them out.
    pub(crate) fn scan(&self, binding: &InputBinding) -> Result<Scan<'_>> {
        let keys = |g: &PropertyGraph, props: &[String]| -> Vec<Option<Symbol>> {
            props.iter().map(|p| g.interner().get(p)).collect()
        };
        Ok(match &binding.source {
            InputSource::Facts => Scan::Rows(Vec::new()),
            InputSource::PgNodes {
                graph,
                label,
                props,
            } => {
                let g = self.graph(graph)?;
                Scan::Nodes {
                    ids: g.nodes_with_label(label),
                    keys: keys(g, props),
                    g,
                }
            }
            InputSource::PgEdges {
                graph,
                label,
                props,
            } => {
                let g = self.graph(graph)?;
                Scan::Edges {
                    ids: g.edges_with_label(label),
                    keys: keys(g, props),
                    g,
                }
            }
            InputSource::RelTable { catalog, table } => {
                Scan::Rows(self.catalog(catalog)?.scan(table)?)
            }
        })
    }
}

/// The rows of one binding, resolved by [`SourceRegistry::scan`].
///
/// Row order is deterministic: graph scans follow insertion order, table
/// scans row order. The chase's bit-identical-output guarantee across
/// worker counts is stated relative to the initial `FactDb` contents, so a
/// scan that ordered rows by hash-map iteration would silently void it.
pub(crate) enum Scan<'a> {
    /// `label`-nodes; tuple = `(oid, props...)`.
    Nodes {
        /// The scanned graph.
        g: &'a PropertyGraph,
        /// Live nodes carrying the label.
        ids: Vec<NodeId>,
        /// Property keys in tuple order; `None` for a key the graph never
        /// interned (no element has it).
        keys: Vec<Option<Symbol>>,
    },
    /// `label`-edges; tuple = `(oid, from_oid, to_oid, props...)`.
    Edges {
        /// The scanned graph.
        g: &'a PropertyGraph,
        /// Live edges carrying the label.
        ids: Vec<EdgeId>,
        /// Property keys in tuple order, as for `Nodes`.
        keys: Vec<Option<Symbol>>,
    },
    /// Table rows (NULLs become [`absent`]); empty for in-memory facts.
    Rows(Vec<Row>),
}

impl Scan<'_> {
    /// Number of rows the scan yields.
    pub(crate) fn len(&self) -> usize {
        match self {
            Scan::Nodes { ids, .. } => ids.len(),
            Scan::Edges { ids, .. } => ids.len(),
            Scan::Rows(rows) => rows.len(),
        }
    }

    /// Hand every row to `sink`, in order, through one reused buffer.
    /// Stops at the first error `sink` returns.
    pub(crate) fn for_each(self, mut sink: impl FnMut(&[Value]) -> Result<()>) -> Result<()> {
        let mut row: Vec<Value> = Vec::new();
        let prop = |v: Option<&Value>| v.cloned().unwrap_or_else(absent);
        match self {
            Scan::Nodes { g, ids, keys } => {
                for n in ids {
                    row.clear();
                    row.push(Value::Oid(g.node_oid(n)));
                    row.extend(
                        keys.iter()
                            .map(|k| prop(k.and_then(|k| g.node_prop_sym(n, k)))),
                    );
                    sink(&row)?;
                }
            }
            Scan::Edges { g, ids, keys } => {
                for e in ids {
                    let (f, t) = g.edge_endpoints(e);
                    row.clear();
                    row.push(Value::Oid(g.edge_oid(e)));
                    row.push(Value::Oid(g.node_oid(f)));
                    row.push(Value::Oid(g.node_oid(t)));
                    row.extend(
                        keys.iter()
                            .map(|k| prop(k.and_then(|k| g.edge_prop_sym(e, k)))),
                    );
                    sink(&row)?;
                }
            }
            Scan::Rows(rows) => {
                for r in rows {
                    row.clear();
                    row.extend(r.into_iter().map(|cell| cell.unwrap_or_else(absent)));
                    sink(&row)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_common::ValueType;
    use kgm_relstore::{Column, TableSchema};

    /// Every row of a binding's scan, copied out of the reused buffer.
    fn rows(reg: &SourceRegistry, b: &InputBinding) -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        reg.scan(b)?.for_each(|row| {
            out.push(row.to_vec());
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn node_binding_loads_oid_and_props() {
        let mut g = PropertyGraph::new();
        g.add_node(
            ["Business"],
            vec![("name".to_string(), Value::str("ACME"))],
        )
        .unwrap();
        g.add_node(["Person"], vec![]).unwrap();
        let mut reg = SourceRegistry::new();
        reg.add_graph("kg", Arc::new(g));
        let b = InputBinding {
            predicate: "business".into(),
            source: InputSource::PgNodes {
                graph: "kg".into(),
                label: "Business".into(),
                props: vec!["name".into(), "website".into()],
            },
        };
        let facts = rows(&reg, &b).unwrap();
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].len(), 3);
        assert_eq!(facts[0][1], Value::str("ACME"));
        assert_eq!(facts[0][2], absent(), "missing optional prop = absent null");
    }

    #[test]
    fn edge_binding_loads_endpoints() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["C"], vec![]).unwrap();
        let b = g.add_node(["C"], vec![]).unwrap();
        g.add_edge(
            a,
            b,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.4))],
        )
        .unwrap();
        let (ao, bo) = (g.node_oid(a), g.node_oid(b));
        let mut reg = SourceRegistry::new();
        reg.add_graph("kg", Arc::new(g));
        let binding = InputBinding {
            predicate: "own".into(),
            source: InputSource::PgEdges {
                graph: "kg".into(),
                label: "OWNS".into(),
                props: vec!["percentage".into()],
            },
        };
        let facts = rows(&reg, &binding).unwrap();
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0][1], Value::Oid(ao));
        assert_eq!(facts[0][2], Value::Oid(bo));
        assert_eq!(facts[0][3], Value::Float(0.4));
    }

    #[test]
    fn rel_binding_loads_rows_with_absent_nulls() {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("id", ValueType::Int).not_null(),
                    Column::new("x", ValueType::Str),
                ],
            )
            .with_pk(["id"]),
        )
        .unwrap();
        c.insert_named("t", &[("id", Value::Int(1))]).unwrap();
        let mut reg = SourceRegistry::new();
        reg.add_catalog("db", Arc::new(c));
        let b = InputBinding {
            predicate: "t".into(),
            source: InputSource::RelTable {
                catalog: "db".into(),
                table: "t".into(),
            },
        };
        let facts = rows(&reg, &b).unwrap();
        assert_eq!(facts, vec![vec![Value::Int(1), absent()]]);
    }

    #[test]
    fn missing_source_is_an_error() {
        let reg = SourceRegistry::new();
        let b = InputBinding {
            predicate: "p".into(),
            source: InputSource::PgNodes {
                graph: "nope".into(),
                label: "L".into(),
                props: vec![],
            },
        };
        assert!(reg.scan(&b).is_err());
    }

    #[test]
    fn display_query_matches_paper_shape() {
        let b = InputBinding {
            predicate: "sm_node".into(),
            source: InputSource::PgNodes {
                graph: "dict".into(),
                label: "SM_Node".into(),
                props: vec![],
            },
        };
        assert_eq!(b.display_query(), "(n:SM_Node) return n");
    }
}
