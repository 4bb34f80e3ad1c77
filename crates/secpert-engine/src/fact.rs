//! Facts and working memory.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{EngineError, Result};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::template::Template;
use crate::value::Value;

/// Identifier of an asserted fact. Ids are monotonically increasing and
/// never reused, so they double as recency for conflict resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactId(u64);

impl FactId {
    /// Raw numeric id (the `N` in CLIPS's `f-N`).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw number (snapshot restore only —
    /// fabricating ids for a live working memory violates monotonicity).
    pub(crate) fn from_raw(raw: u64) -> FactId {
        FactId(raw)
    }
}

impl fmt::Display for FactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f-{}", self.0)
    }
}

/// An immutable fact: a template instance with one value per slot.
#[derive(Clone, Debug, PartialEq)]
pub struct Fact {
    template: Arc<Template>,
    slots: Vec<Value>,
}

impl Fact {
    /// Creates a fact with every slot set to its (implicit) default.
    pub fn with_defaults(template: Arc<Template>) -> Fact {
        let slots = template
            .slots()
            .iter()
            .map(|s| s.default().cloned().unwrap_or_else(|| s.implicit_default()))
            .collect();
        Fact { template, slots }
    }

    /// Rebuilds a fact from already-coerced slot values (snapshot
    /// restore). The values are trusted to have passed coercion when the
    /// fact was first built; only the arity is re-checked.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::SlotArity`] when the slot count does not
    /// match the template.
    pub(crate) fn from_parts(template: Arc<Template>, slots: Vec<Value>) -> Result<Fact> {
        if slots.len() != template.slots().len() {
            return Err(EngineError::SlotArity {
                template: template.name().to_string(),
                slot: "*".to_string(),
                message: format!("{} values for {} slots", slots.len(), template.slots().len()),
            });
        }
        Ok(Fact { template, slots })
    }

    /// The fact's template.
    pub fn template(&self) -> &Arc<Template> {
        &self.template
    }

    /// Slot values in template declaration order.
    pub fn slots(&self) -> &[Value] {
        &self.slots
    }

    /// Value of slot `name`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSlot`] when the template lacks `name`.
    pub fn get(&self, name: &str) -> Result<&Value> {
        let i = self.template.slot_index(name).ok_or_else(|| EngineError::UnknownSlot {
            template: self.template.name().to_string(),
            slot: name.to_string(),
        })?;
        Ok(&self.slots[i])
    }

    /// Sets slot `name` to `value`, coercing per the slot kind.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSlot`] or [`EngineError::SlotArity`].
    pub fn set(&mut self, name: &str, value: Value) -> Result<()> {
        let i = self.template.slot_index(name).ok_or_else(|| EngineError::UnknownSlot {
            template: self.template.name().to_string(),
            slot: name.to_string(),
        })?;
        let def = &self.template.slots()[i];
        self.slots[i] = self.template.coerce(def, value)?;
        Ok(())
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.template.name())?;
        for (def, value) in self.template.slots().iter().zip(&self.slots) {
            match value {
                Value::Multi(items) => {
                    write!(f, " ({}", def.name())?;
                    for item in items.iter() {
                        write!(f, " {item}")?;
                    }
                    write!(f, ")")?;
                }
                v => write!(f, " ({} {v})", def.name())?,
            }
        }
        write!(f, ")")
    }
}

/// Builder for facts, used by host code that feeds events into the engine.
///
/// ```
/// use secpert_engine::{FactBuilder, Template, SlotDef, Value};
/// use std::sync::Arc;
/// let t = Arc::new(Template::new("ev", [SlotDef::single("time"), SlotDef::multi("src")]));
/// let fact = FactBuilder::new(t)
///     .slot("time", 33)
///     .slot("src", Value::multi([Value::sym("BINARY")]))
///     .build()
///     .unwrap();
/// assert_eq!(fact.get("time").unwrap(), &Value::Int(33));
/// ```
#[derive(Debug)]
pub struct FactBuilder {
    fact: Fact,
    error: Option<EngineError>,
}

impl FactBuilder {
    /// Starts building a fact of the given template, slots at defaults.
    pub fn new(template: Arc<Template>) -> FactBuilder {
        FactBuilder { fact: Fact::with_defaults(template), error: None }
    }

    /// Sets a slot; errors are deferred to [`FactBuilder::build`].
    #[must_use]
    pub fn slot(mut self, name: &str, value: impl Into<Value>) -> FactBuilder {
        if self.error.is_none() {
            if let Err(e) = self.fact.set(name, value.into()) {
                self.error = Some(e);
            }
        }
        self
    }

    /// Finishes the fact.
    ///
    /// # Errors
    ///
    /// Returns the first slot error encountered while building.
    pub fn build(self) -> Result<Fact> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.fact),
        }
    }
}

/// Per-template slot-value index: one `value -> ids` map per slot, in
/// template declaration order. Iteration over a bucket is ascending by
/// fact id (assertion order), matching `ids_of`.
type SlotIndex = Vec<FxHashMap<Value, BTreeSet<FactId>>>;

/// Hash of a fact's identity (template name + slot values), used to make
/// duplicate suppression O(1) instead of a scan of the template extent.
fn content_key(fact: &Fact) -> u64 {
    let mut h = FxHasher::default();
    fact.template().name().hash(&mut h);
    fact.slots().hash(&mut h);
    h.finish()
}

/// Working memory: the set of currently asserted facts.
///
/// Beyond the per-template extent, two hash indexes are maintained on
/// every assert/retract: a content index for duplicate suppression and a
/// per-slot value index (the alpha-network discrimination used by the
/// Rete matcher's constant and join lookups).
#[derive(Clone, Debug, Default)]
pub struct WorkingMemory {
    facts: FxHashMap<FactId, Arc<Fact>>,
    by_template: FxHashMap<Arc<str>, Vec<FactId>>,
    by_content: FxHashMap<u64, Vec<FactId>>,
    by_slot_value: FxHashMap<Arc<str>, SlotIndex>,
    /// Content key of every live fact, so retract reuses the hash the
    /// assert computed instead of re-hashing the whole fact.
    content_keys: FxHashMap<FactId, u64>,
    /// `None` indexes every slot (standalone use); `Some(plan)` indexes
    /// only the registered `(template, slot)` pairs — the engine
    /// registers exactly the slots its compiled rule nodes probe, so
    /// assert/retract skip maintaining buckets nothing ever reads.
    index_plan: Option<HashMap<Arc<str>, Vec<usize>>>,
    next_id: u64,
}

impl WorkingMemory {
    /// Creates an empty working memory.
    pub fn new() -> WorkingMemory {
        WorkingMemory::default()
    }

    /// Switches the slot-value index from index-everything to an explicit
    /// registry: from now on only slots registered via
    /// [`WorkingMemory::index_slot`] are maintained, and [`WorkingMemory::ids_with`]
    /// answers only for those. Existing buckets are dropped.
    pub fn restrict_index(&mut self) {
        if self.index_plan.is_none() {
            self.index_plan = Some(HashMap::new());
            self.by_slot_value.clear();
        }
    }

    /// Registers `(template, slot)` for indexing under a restricted plan
    /// and backfills the bucket from live facts. A no-op when the plan
    /// is index-everything or the pair is already registered.
    pub fn index_slot(&mut self, template: &str, slot: usize) {
        let Some(plan) = &mut self.index_plan else { return };
        match plan.get_mut(template) {
            Some(slots) if slots.contains(&slot) => return,
            Some(slots) => slots.push(slot),
            None => {
                plan.insert(Arc::from(template), vec![slot]);
            }
        }
        // Backfill from the current extent so late rule additions see
        // facts asserted before them.
        let ids = self.by_template.get(template).cloned().unwrap_or_default();
        for id in ids {
            let fact = self.facts[&id].clone();
            let index = self
                .by_slot_value
                .entry(Arc::from(template))
                .or_insert_with(|| vec![FxHashMap::default(); fact.template().slots().len()]);
            if let Some(value) = fact.slots().get(slot) {
                index[slot].entry(value.clone()).or_default().insert(id);
            }
        }
    }

    /// Asserts `fact`, returning its new id, or `None` when an identical
    /// fact is already present (CLIPS duplicate suppression).
    pub fn assert(&mut self, fact: Fact) -> Option<FactId> {
        let key = content_key(&fact);
        if let Some(ids) = self.by_content.get(&key) {
            if ids.iter().any(|id| *self.facts[id] == fact) {
                return None;
            }
        }
        let name: Arc<str> = fact.template().name_arc().clone();
        self.next_id += 1;
        let id = FactId(self.next_id);
        match self.index_plan.as_ref().and_then(|plan| plan.get(&name)) {
            Some(slots) => {
                let planned: Vec<usize> = slots.clone();
                let index = self
                    .by_slot_value
                    .entry(name.clone())
                    .or_insert_with(|| vec![FxHashMap::default(); fact.template().slots().len()]);
                for i in planned {
                    index[i].entry(fact.slots()[i].clone()).or_default().insert(id);
                }
            }
            None if self.index_plan.is_some() => {} // restricted, template unregistered
            None => {
                let index = self
                    .by_slot_value
                    .entry(name.clone())
                    .or_insert_with(|| vec![FxHashMap::default(); fact.template().slots().len()]);
                for (i, value) in fact.slots().iter().enumerate() {
                    index[i].entry(value.clone()).or_default().insert(id);
                }
            }
        }
        self.by_content.entry(key).or_default().push(id);
        self.content_keys.insert(id, key);
        self.facts.insert(id, Arc::new(fact));
        self.by_template.entry(name).or_default().push(id);
        Some(id)
    }

    /// Retracts the fact with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoSuchFact`] when the id is not live.
    pub fn retract(&mut self, id: FactId) -> Result<Arc<Fact>> {
        let fact = self.facts.remove(&id).ok_or(EngineError::NoSuchFact(id.raw()))?;
        if let Some(ids) = self.by_template.get_mut(fact.template().name()) {
            ids.retain(|other| *other != id);
        }
        let key = self.content_keys.remove(&id).unwrap_or_else(|| content_key(&fact));
        if let Some(ids) = self.by_content.get_mut(&key) {
            ids.retain(|other| *other != id);
            if ids.is_empty() {
                self.by_content.remove(&key);
            }
        }
        if let Some(index) = self.by_slot_value.get_mut(fact.template().name()) {
            let mut unindex = |i: usize, value: &Value| {
                if let Some(bucket) = index[i].get_mut(value) {
                    bucket.remove(&id);
                    if bucket.is_empty() {
                        index[i].remove(value);
                    }
                }
            };
            match self.index_plan.as_ref().and_then(|plan| plan.get(fact.template().name())) {
                Some(slots) => {
                    for &i in slots {
                        unindex(i, &fact.slots()[i]);
                    }
                }
                None if self.index_plan.is_some() => {}
                None => {
                    for (i, value) in fact.slots().iter().enumerate() {
                        unindex(i, value);
                    }
                }
            }
        }
        Ok(fact)
    }

    /// Looks up a live fact.
    pub fn get(&self, id: FactId) -> Option<&Arc<Fact>> {
        self.facts.get(&id)
    }

    /// Ids of live facts of the given template, in assertion order.
    pub fn ids_of(&self, template: &str) -> &[FactId] {
        self.by_template.get(template).map_or(&[], Vec::as_slice)
    }

    /// Ids of live facts of `template` whose slot at index `slot` equals
    /// `value` exactly, ascending by id. Returns `None` when no fact
    /// matches (including unknown templates). Under a restricted plan
    /// ([`WorkingMemory::restrict_index`]) only registered slots are
    /// queryable; unregistered ones answer `None` regardless of facts.
    pub fn ids_with(
        &self,
        template: &str,
        slot: usize,
        value: &Value,
    ) -> Option<&BTreeSet<FactId>> {
        self.by_slot_value.get(template)?.get(slot)?.get(value)
    }

    /// Iterates over all live facts in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Arc<Fact>)> {
        self.facts.iter().map(|(id, f)| (*id, f))
    }

    /// Number of live facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when no facts are asserted.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The id counter's current position (the last id handed out).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Forces the id counter so the next assert hands out `next + 1`.
    /// Snapshot restore only: replaying facts with their original ids
    /// requires positioning the counter just below each recorded id.
    pub(crate) fn set_next_id(&mut self, next: u64) {
        self.next_id = next;
    }

    /// Approximate resident bytes: facts (template refs share their
    /// `Arc<Template>`, so only slot payloads count per fact) plus the
    /// per-template, content, and slot-value indexes. An estimate for
    /// memory budgeting, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for fact in self.facts.values() {
            bytes += std::mem::size_of::<Fact>() + 48; // Arc + map slot overhead
            for value in fact.slots() {
                bytes += value_approx_bytes(value);
            }
        }
        // Index entries: id lists in by_template/by_content, and one
        // (Value, BTreeSet node) pair per indexed slot occurrence.
        bytes += self.by_template.values().map(|ids| 32 + ids.len() * 8).sum::<usize>();
        bytes += self.by_content.len() * 32;
        bytes += self.content_keys.len() * 16;
        for index in self.by_slot_value.values() {
            for buckets in index {
                for (value, ids) in buckets {
                    bytes += value_approx_bytes(value) + 32 + ids.len() * 24;
                }
            }
        }
        bytes
    }

    /// Removes every fact but keeps the id counter monotonic.
    pub fn clear(&mut self) {
        self.facts.clear();
        self.by_template.clear();
        self.by_content.clear();
        self.by_slot_value.clear();
        self.content_keys.clear();
    }
}

/// Approximate heap bytes held by one value (shared `Arc` payloads are
/// charged to every holder — deliberate, since budget accounting wants
/// an upper bound, not a deduplicated census).
pub(crate) fn value_approx_bytes(value: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match value {
            Value::Sym(s) | Value::Str(s) => s.len(),
            Value::Multi(items) => items.iter().map(value_approx_bytes).sum(),
            Value::Int(_) | Value::Float(_) | Value::Fact(_) => 0,
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::SlotDef;

    fn tmpl() -> Arc<Template> {
        Arc::new(Template::new("ev", [SlotDef::single("a"), SlotDef::multi("b")]))
    }

    #[test]
    fn assert_and_retract() {
        let mut wm = WorkingMemory::new();
        let f = FactBuilder::new(tmpl()).slot("a", 1).build().unwrap();
        let id = wm.assert(f.clone()).unwrap();
        assert_eq!(wm.len(), 1);
        assert_eq!(wm.ids_of("ev"), [id]);
        let out = wm.retract(id).unwrap();
        assert_eq!(*out, f);
        assert!(wm.is_empty());
        assert!(wm.retract(id).is_err());
    }

    #[test]
    fn duplicate_assertion_suppressed() {
        let mut wm = WorkingMemory::new();
        let f = FactBuilder::new(tmpl()).slot("a", 1).build().unwrap();
        assert!(wm.assert(f.clone()).is_some());
        assert!(wm.assert(f).is_none());
        assert_eq!(wm.len(), 1);
    }

    #[test]
    fn ids_are_monotonic_and_not_reused() {
        let mut wm = WorkingMemory::new();
        let a = wm.assert(FactBuilder::new(tmpl()).slot("a", 1).build().unwrap()).unwrap();
        let b = wm.assert(FactBuilder::new(tmpl()).slot("a", 2).build().unwrap()).unwrap();
        wm.retract(a).unwrap();
        let c = wm.assert(FactBuilder::new(tmpl()).slot("a", 3).build().unwrap()).unwrap();
        assert!(b > a);
        assert!(c > b);
    }

    #[test]
    fn slot_value_index_tracks_assert_and_retract() {
        let mut wm = WorkingMemory::new();
        let a = wm.assert(FactBuilder::new(tmpl()).slot("a", 1).build().unwrap()).unwrap();
        let b = wm.assert(FactBuilder::new(tmpl()).slot("a", 2).build().unwrap()).unwrap();
        let c = wm.assert(
            FactBuilder::new(tmpl()).slot("a", 1).slot("b", Value::multi([])).build().unwrap(),
        );
        assert!(c.is_none(), "content index still suppresses duplicates");
        let ones: Vec<FactId> =
            wm.ids_with("ev", 0, &Value::Int(1)).into_iter().flatten().copied().collect();
        assert_eq!(ones, [a]);
        wm.retract(a).unwrap();
        assert!(wm.ids_with("ev", 0, &Value::Int(1)).is_none());
        let twos: Vec<FactId> =
            wm.ids_with("ev", 0, &Value::Int(2)).into_iter().flatten().copied().collect();
        assert_eq!(twos, [b]);
        assert!(wm.ids_with("ev", 9, &Value::Int(2)).is_none(), "out-of-range slot");
        assert!(wm.ids_with("nope", 0, &Value::Int(2)).is_none(), "unknown template");
    }

    #[test]
    fn fact_display_matches_clips_shape() {
        let f = FactBuilder::new(tmpl())
            .slot("a", Value::sym("SYS_execve"))
            .slot("b", Value::multi([Value::str("/bin/ls"), Value::sym("FILE")]))
            .build()
            .unwrap();
        assert_eq!(f.to_string(), "(ev (a SYS_execve) (b \"/bin/ls\" FILE))");
    }

    #[test]
    fn from_parts_checks_arity_only() {
        let f = Fact::from_parts(tmpl(), vec![Value::Int(1), Value::empty_multi()]).unwrap();
        assert_eq!(f.get("a").unwrap(), &Value::Int(1));
        assert!(Fact::from_parts(tmpl(), vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn set_next_id_positions_the_counter() {
        let mut wm = WorkingMemory::new();
        wm.set_next_id(6);
        let id = wm.assert(FactBuilder::new(tmpl()).slot("a", 1).build().unwrap()).unwrap();
        assert_eq!(id.raw(), 7);
        assert_eq!(FactId::from_raw(7), id);
    }

    #[test]
    fn approx_bytes_grows_with_population() {
        let mut wm = WorkingMemory::new();
        let empty = wm.approx_bytes();
        wm.assert(FactBuilder::new(tmpl()).slot("a", Value::str("/bin/ls")).build().unwrap())
            .unwrap();
        assert!(wm.approx_bytes() > empty);
    }

    #[test]
    fn defaults_apply() {
        let t = Arc::new(Template::new(
            "d",
            [SlotDef::single("x").with_default(Value::Int(9)), SlotDef::multi("y")],
        ));
        let f = Fact::with_defaults(t);
        assert_eq!(f.get("x").unwrap(), &Value::Int(9));
        assert_eq!(f.get("y").unwrap(), &Value::empty_multi());
    }
}
