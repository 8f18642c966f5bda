//! Value interning for columnar fact storage.
//!
//! The chase engine stores tuples as flat per-column `u64` id arrays; the
//! [`ValuePool`] is the codec between those packed columns and [`Value`]s.
//!
//! The pool is **two-level** because `Value` equality is coarser than value
//! identity: `Int(1) == Float(1.0)` (with a coherent hash), and the engine's
//! deduplication and joins must respect that equality — but a stored tuple
//! must read back with exactly the representation it was inserted with (a
//! downstream `mod` on what was inserted as an `Int` must not suddenly see a
//! `Float` because some other tuple interned `1.0` first). So:
//!
//! - **exact ids** (`intern`, `get`, `pack`, `unpack`) key on the exact
//!   representation (`ValueType` + payload) and are what the columns store;
//! - **class ids** (`class`, `classes`, `lookup`) identify the `Value`
//!   equality class — the exact id of its first-interned member — and are
//!   what tuple hashes, dedup comparisons and join keys use.
//!
//! With class ids in the dedup path the columnar store rejects duplicates
//! exactly like the row-oriented `FxHashSet<Vec<Value>>` it replaced, while
//! exact ids in the columns preserve first-inserted tuples verbatim.
//!
//! Only numbers have more than one representation per class, so one map
//! serves both levels: the class map's key *is* the class's first member,
//! and a value of the same type found there is that member exactly. Other
//! representations (`Float(1.0)` in the class of `Int(1)`) live in a small
//! side map.
//!
//! An [`Oid`] equals only itself, so each OID is a class of one. OIDs are
//! most of what a loaded dictionary interns (every instance construct has
//! one), so they skip the `Value`-keyed class map and live in a map keyed
//! by the 8-byte [`Oid`]; exact and class id coincide for them.

use crate::hash::FxHashMap;
use crate::oid::Oid;
use crate::value::{Value, ValueType};

/// An append-only `Value` ↔ `u64` id table (see the module docs for the
/// exact-id / class-id split).
///
/// Ids are dense (`0..len`) and never invalidated. A pool is the private
/// property of one fact store — ids from different pools are not comparable.
#[derive(Debug, Default, Clone)]
pub struct ValuePool {
    vals: Vec<Value>,
    /// Exact id → class id (the exact id of the class's first member).
    class_of: Vec<u64>,
    /// `Value`-equality class → class id, keyed by the class's first
    /// member (whose exact id the class id is).
    class_ids: FxHashMap<Value, u64>,
    /// Exact representation → exact id, for members that are not the first
    /// of their class. The `ValueType` component splits the cross-numeric
    /// `Int`/`Float` equality class into its exact members.
    other_ids: FxHashMap<(ValueType, Value), u64>,
    /// OID → id (exact and class id at once: an OID's class is itself).
    /// OIDs never enter `class_ids`.
    oid_ids: FxHashMap<Oid, u64>,
    /// Indirect heap bytes owned by interned values (string payloads); the
    /// direct `Vec`/map footprint is derived from capacities on demand.
    str_bytes: usize,
}

impl ValuePool {
    pub fn new() -> ValuePool {
        ValuePool::default()
    }

    /// Number of distinct exact values interned.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Intern `v`, returning its exact id. The same representation always
    /// maps to the same id; `Int(1)` and `Float(1.0)` get distinct exact ids
    /// in the same equality class.
    pub fn intern(&mut self, v: &Value) -> u64 {
        match self.probe(v) {
            Ok(id) => id,
            Err(class) => self.intern_new(v.clone(), class),
        }
    }

    /// Intern an owned value.
    pub fn intern_owned(&mut self, v: Value) -> u64 {
        match self.probe(&v) {
            Ok(id) => id,
            Err(class) => self.intern_new(v, class),
        }
    }

    /// `Ok(exact id)` if `v`'s representation is interned, else
    /// `Err(class id)` of the class it would join, if any.
    fn probe(&self, v: &Value) -> std::result::Result<u64, Option<u64>> {
        if let Value::Oid(o) = v {
            return self.oid_ids.get(o).copied().ok_or(None);
        }
        match self.class_ids.get_key_value(v) {
            Some((first, &class)) if first.value_type() == v.value_type() => Ok(class),
            Some((_, &class)) => match self.other_ids.get(&(v.value_type(), v.clone())) {
                Some(&id) => Ok(id),
                None => Err(Some(class)),
            },
            None => Err(None),
        }
    }

    fn intern_new(&mut self, v: Value, class: Option<u64>) -> u64 {
        let id = self.vals.len() as u64;
        if let Value::Str(s) = &v {
            self.str_bytes += s.len();
        }
        match (&v, class) {
            (_, Some(class)) => {
                self.class_of.push(class);
                self.other_ids.insert((v.value_type(), v.clone()), id);
            }
            (Value::Oid(o), None) => {
                self.class_of.push(id);
                self.oid_ids.insert(*o, id);
            }
            (_, None) => {
                self.class_of.push(id);
                self.class_ids.insert(v.clone(), id);
            }
        }
        self.vals.push(v);
        id
    }

    /// The equality-class id of an exact id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this pool.
    #[inline]
    pub fn class(&self, id: u64) -> u64 {
        self.class_of[id as usize]
    }

    /// The full exact-id → class-id table, indexable by exact id. Hot join
    /// and dedup loops take this slice once instead of calling
    /// [`ValuePool::class`] through the pool per element.
    #[inline]
    pub fn classes(&self) -> &[u64] {
        &self.class_of
    }

    /// Read-only probe: the **class id** of `v` if any equal value has ever
    /// been interned. Workers deduplicating against a frozen store and join
    /// probes use this — a miss means no equal value (and hence no tuple
    /// containing one) can be present.
    pub fn lookup(&self, v: &Value) -> Option<u64> {
        match v {
            Value::Oid(o) => self.oid_ids.get(o).copied(),
            _ => self.class_ids.get(v).copied(),
        }
    }

    /// Read-only probe: the **exact id** of `v`'s representation, if it was
    /// ever interned. The chase resolves head constants with this once per
    /// rule evaluation.
    pub fn find_exact(&self, v: &Value) -> Option<u64> {
        self.probe(v).ok()
    }

    /// Resolve an exact id back to the value it was interned from.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this pool.
    pub fn get(&self, id: u64) -> &Value {
        &self.vals[id as usize]
    }

    /// Pack a tuple of values into exact ids, appending to `out`.
    pub fn pack(&mut self, tuple: &[Value], out: &mut Vec<u64>) {
        out.reserve(tuple.len());
        for v in tuple {
            out.push(self.intern(v));
        }
    }

    /// Unpack a row of exact ids back into owned values (cheap: `Value`
    /// clones are at most an `Arc` bump).
    pub fn unpack(&self, ids: &[u64]) -> Vec<Value> {
        ids.iter().map(|&id| self.get(id).clone()).collect()
    }

    /// Approximate heap footprint of the pool itself: the reverse table, the
    /// class table, the three id maps, and string payloads. Each `Arc<str>`
    /// payload is counted once even though map keys and the reverse table
    /// share it.
    pub fn approx_bytes(&self) -> usize {
        let val = std::mem::size_of::<Value>();
        let u64s = std::mem::size_of::<u64>();
        // FxHashMap entry: key + value + ~1/8 control overhead per slot,
        // with hashbrown's ~8/7 capacity slack folded into a flat factor.
        let other_entry = std::mem::size_of::<(ValueType, Value)>() + u64s + 8;
        let class_entry = val + u64s + 8;
        let oid_entry = std::mem::size_of::<Oid>() + u64s + 8;
        self.vals.capacity() * val
            + self.class_of.capacity() * u64s
            + self.other_ids.capacity() * other_entry
            + self.class_ids.capacity() * class_entry
            + self.oid_ids.capacity() * oid_entry
            + self.str_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_a_class_but_keep_exact_representations() {
        let mut pool = ValuePool::new();
        let a = pool.intern(&Value::Int(1));
        let b = pool.intern(&Value::Float(1.0));
        assert_ne!(a, b, "distinct representations get distinct exact ids");
        assert_eq!(pool.class(a), pool.class(b), "but share one class");
        assert_eq!(pool.class(a), a, "the first member names the class");
        assert_eq!(pool.get(a), &Value::Int(1));
        assert_eq!(pool.get(b).value_type(), ValueType::Float, "exact ids resolve verbatim");
        assert_eq!(pool.len(), 2);

        let c = pool.intern(&Value::Float(2.5));
        assert_ne!(pool.class(a), pool.class(c));
        assert_eq!(pool.get(c), &Value::Float(2.5));
    }

    #[test]
    fn every_representation_of_a_class_keeps_its_own_exact_id() {
        let mut pool = ValuePool::new();
        let f = pool.intern(&Value::Float(2.0));
        let i = pool.intern(&Value::Int(2));
        let s = pool.intern(&Value::str("2"));
        assert_eq!(pool.intern(&Value::Int(2)), i);
        assert_eq!(pool.intern(&Value::Float(2.0)), f);
        assert_eq!(pool.class(i), f, "the first member names the class");
        assert_ne!(pool.class(s), f);
        assert_eq!(pool.find_exact(&Value::Int(2)), Some(i));
        assert_eq!(pool.find_exact(&Value::Int(3)), None);
        assert_eq!(pool.get(i).value_type(), ValueType::Int);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn reinterning_is_stable() {
        let mut pool = ValuePool::new();
        let a = pool.intern(&Value::Int(7));
        let b = pool.intern_owned(Value::Float(7.0));
        assert_eq!(pool.intern(&Value::Int(7)), a);
        assert_eq!(pool.intern(&Value::Float(7.0)), b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn pack_unpack_round_trips_exactly() {
        let mut pool = ValuePool::new();
        let tuple = vec![
            Value::str("alpha"),
            Value::Int(7),
            Value::Float(7.0),
            Value::str("alpha"),
        ];
        let mut ids = Vec::new();
        pool.pack(&tuple, &mut ids);
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], ids[3], "repeated values reuse the exact id");
        assert_ne!(ids[1], ids[2], "Int(7) and Float(7.0) stay distinct");
        let back = pool.unpack(&ids);
        assert_eq!(back, tuple);
        for (v, b) in tuple.iter().zip(&back) {
            assert_eq!(v.value_type(), b.value_type(), "bitwise fidelity");
        }
    }

    #[test]
    fn lookup_is_read_only_and_class_keyed() {
        let mut pool = ValuePool::new();
        let a = pool.intern(&Value::Int(3));
        assert_eq!(pool.lookup(&Value::Float(3.0)), Some(pool.class(a)));
        assert_eq!(pool.lookup(&Value::Int(4)), None);
        assert_eq!(pool.find_exact(&Value::Int(3)), Some(a));
        assert_eq!(
            pool.find_exact(&Value::Float(3.0)),
            None,
            "exact, not class"
        );
        assert_eq!(pool.len(), 1, "lookup must not intern");
    }

    #[test]
    fn classes_slice_mirrors_class() {
        let mut pool = ValuePool::new();
        for v in [Value::Int(1), Value::Float(1.0), Value::str("x")] {
            pool.intern(&v);
        }
        let classes = pool.classes();
        assert_eq!(classes.len(), pool.len());
        for id in 0..pool.len() as u64 {
            assert_eq!(classes[id as usize], pool.class(id));
        }
    }

    #[test]
    fn oids_are_classes_of_one_among_numeric_classes() {
        use crate::oid::OidSpace;
        let mut pool = ValuePool::new();
        let a = Value::Oid(Oid::ground(1));
        let null = Value::Oid(Oid::new(OidSpace::Null, 1));
        let i = pool.intern(&Value::Int(1));
        let oa = pool.intern(&a);
        let f = pool.intern(&Value::Float(1.0));
        let on = pool.intern_owned(null.clone());
        // Exact ids follow interning order across both maps.
        assert_eq!((i, oa, f, on), (0, 1, 2, 3));
        assert_eq!(pool.intern(&a), oa, "re-interning an OID is stable");
        assert_eq!(pool.len(), 4);
        // An OID is its own class; it joins no numeric class, and OIDs
        // with the same payload in different spaces stay apart.
        assert_eq!(pool.class(oa), oa);
        assert_eq!(pool.class(on), on);
        assert_eq!(pool.class(f), i);
        assert_eq!(pool.classes(), &[0, 1, 0, 3]);
        assert_eq!(pool.find_exact(&a), Some(oa));
        assert_eq!(pool.lookup(&a), Some(oa));
        assert_eq!(pool.lookup(&null), Some(on));
        assert_eq!(pool.lookup(&Value::Oid(Oid::ground(2))), None);
        assert_eq!(pool.find_exact(&Value::Oid(Oid::ground(2))), None);
        assert_eq!(pool.lookup(&Value::Float(1.0)), Some(i));
        assert_eq!(pool.get(oa), &a);
        assert_eq!(pool.get(on), &null);
        assert_eq!(pool.len(), 4, "probes must not intern");
    }

    #[test]
    fn approx_bytes_counts_the_oid_map() {
        let mut pool = ValuePool::new();
        let empty = pool.approx_bytes();
        for i in 0..1000 {
            pool.intern_owned(Value::Oid(Oid::ground(i)));
        }
        // Per OID at least its reverse-table slot, class slot and map entry.
        let per = std::mem::size_of::<Value>() + 8 + std::mem::size_of::<Oid>() + 8;
        let full = pool.approx_bytes();
        assert!(full >= empty + 1000 * per, "{empty} -> {full}");
    }

    #[test]
    fn approx_bytes_grows_with_contents() {
        let mut pool = ValuePool::new();
        let empty = pool.approx_bytes();
        for i in 0..1000 {
            pool.intern_owned(Value::str(format!("company-{i}")));
        }
        let full = pool.approx_bytes();
        assert!(full > empty + 1000 * 10, "{empty} -> {full}");
    }
}
