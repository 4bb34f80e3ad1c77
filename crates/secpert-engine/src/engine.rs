//! The inference engine: match–resolve–act over working memory.
//!
//! Matching is delegated to one of two interchangeable matchers (see
//! [`Matcher`]): the default incremental Rete-style network
//! ([`crate::rete`]), which propagates working-memory deltas through
//! per-rule token chains, or the original naive matcher — an `assert`
//! seed-joins the new fact into every rule pattern of the same template,
//! a `retract` removes the activations that used the fact, and rules
//! with `not` condition elements touching a changed template are
//! recomputed in full. The naive matcher is kept as a differential
//! oracle (`--features naive-match` flips the default) and both produce
//! byte-identical agenda order, transcripts and firing records.
//!
//! Conflict resolution follows CLIPS's depth strategy: highest salience
//! first, most recent activation first among equals. Refraction prevents
//! an activation (rule + fact tuple) from firing twice.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::builtins;
use crate::error::{EngineError, Result};
use crate::explain::{FactSupportRecord, FiringRecord};
use crate::expr::{eval, Bindings, Host};
use crate::fact::{Fact, FactBuilder, FactId, WorkingMemory};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::pattern::CondElem;
use crate::rete::{MatchStats, ReteNetwork, UpdateOutcome};
use crate::rule::Rule;
use crate::snapshot::{EngineSnapshot, FactRecord};
use crate::template::Template;
use crate::value::Value;

/// Signature of host-registered native functions.
pub type NativeFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// One rule match: the fact tuple plus the variable bindings it produced.
type Match = (Vec<Option<FactId>>, Bindings);

/// Identity of an activation: the rule index plus its fact tuple (`None`
/// entries stand for `not`/`test` positions). Also the refraction key.
pub(crate) type ActKey = (usize, Vec<Option<FactId>>);

/// A user-defined function (`deffunction`): named parameters, an
/// optional `$?rest` wildcard collecting extra arguments, and a body of
/// expressions evaluated left to right (last value returned).
#[derive(Clone, Debug, PartialEq)]
pub struct UserFn {
    /// Function name.
    pub name: Arc<str>,
    /// Positional parameter names.
    pub params: Vec<Arc<str>>,
    /// Optional trailing `$?rest` parameter bound to a multifield of the
    /// remaining arguments.
    pub wildcard: Option<Arc<str>>,
    /// Body expressions.
    pub body: Vec<crate::expr::Expr>,
}

/// Which match algorithm keeps the agenda up to date.
///
/// Both matchers produce byte-identical observable behavior (agenda
/// order, firing records, transcripts); they differ only in cost. The
/// default is [`Matcher::Rete`] unless the crate is built with the
/// `naive-match` feature, which restores the original full-join matcher
/// as the default (useful as a differential oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matcher {
    /// Per-assert seed joins and full recomputes; O(join) per change.
    Naive,
    /// Incremental match network; O(affected tokens) per change.
    Rete,
}

impl Default for Matcher {
    fn default() -> Matcher {
        if cfg!(feature = "naive-match") {
            Matcher::Naive
        } else {
            Matcher::Rete
        }
    }
}

/// Conflict-resolution strategy (CLIPS `set-strategy` subset).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Newest activation first among equal saliences (CLIPS default).
    #[default]
    Depth,
    /// Oldest activation first among equal saliences.
    Breadth,
}

/// One entry on the agenda: a rule together with a consistent fact tuple.
#[derive(Clone, Debug)]
struct Activation {
    rule: usize,
    facts: Vec<Option<FactId>>,
    bindings: Bindings,
    salience: i32,
    seq: u64,
}

/// Read-only evaluation host used while matching patterns. Mutating
/// actions are rejected: patterns must be pure.
struct MatchHost<'a> {
    globals: &'a FxHashMap<Arc<str>, Value>,
    natives: &'a FxHashMap<Arc<str>, NativeFn>,
    userfns: &'a FxHashMap<Arc<str>, Arc<UserFn>>,
}

impl Host for MatchHost<'_> {
    fn global(&self, name: &str) -> Result<Value> {
        self.globals.get(name).cloned().ok_or_else(|| EngineError::UnknownGlobal(name.to_string()))
    }

    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        match builtins::call(name, args) {
            Err(EngineError::UnknownFunction(_)) => match self.natives.get(name) {
                Some(f) => f(args),
                None => match self.userfns.get(name).cloned() {
                    Some(f) => {
                        let mut bindings = bind_userfn_args(&f, args)?;
                        let mut last = Value::falsity();
                        for expr in &f.body {
                            last = eval(expr, &mut bindings, self)?;
                        }
                        Ok(last)
                    }
                    None => Err(EngineError::UnknownFunction(name.to_string())),
                },
            },
            other => other,
        }
    }

    fn assert(&mut self, _: &str, _: &[(Arc<str>, Value)]) -> Result<Value> {
        Err(EngineError::Type { expected: "pure expression in pattern", found: "assert".into() })
    }

    fn retract(&mut self, _: FactId) -> Result<()> {
        Err(EngineError::Type { expected: "pure expression in pattern", found: "retract".into() })
    }

    fn print(&mut self, _: &str) -> Result<()> {
        Err(EngineError::Type { expected: "pure expression in pattern", found: "printout".into() })
    }
}

/// The expert-system engine.
///
/// ```
/// use secpert_engine::Engine;
/// # fn main() -> Result<(), secpert_engine::EngineError> {
/// let mut engine = Engine::new();
/// engine.load_str(r#"
///   (deftemplate greeting (slot to))
///   (defrule hello
///     (greeting (to ?who))
///     =>
///     (printout t "hello " ?who crlf))
/// "#)?;
/// engine.assert_str("(greeting (to world))")?;
/// engine.run(None)?;
/// assert_eq!(engine.take_output(), "hello world\n");
/// # Ok(())
/// # }
/// ```
///
/// A clone copies the facts, match state, agenda and output, and shares
/// the compiled rule base: templates, rules, compiled match nodes and
/// natives. A shared native closure keeps whatever state it captured,
/// so a clone that needs its own (a warning sink, say) re-registers
/// that native with [`Engine::register_fn`]. Cloning a reset engine is
/// how many engines start from one compile of a policy.
#[derive(Clone)]
pub struct Engine {
    templates: FxHashMap<Arc<str>, Arc<Template>>,
    rules: Vec<Arc<Rule>>,
    rule_names: FxHashMap<Arc<str>, usize>,
    wm: WorkingMemory,
    globals: FxHashMap<Arc<str>, Value>,
    natives: FxHashMap<Arc<str>, NativeFn>,
    userfns: FxHashMap<Arc<str>, Arc<UserFn>>,
    strategy: Strategy,
    watch: bool,
    trace: Vec<String>,
    deffacts: Vec<Fact>,
    /// Salience-bucketed, seq-ordered agenda: keys are `(salience, seq)`,
    /// so the Depth pick is the last entry and the Breadth pick is the
    /// first entry within the top salience — no linear scans.
    agenda: BTreeMap<(i32, u64), Activation>,
    /// Activation identity -> its agenda key, for O(1) targeted removal.
    agenda_keys: FxHashMap<ActKey, (i32, u64)>,
    refraction: FxHashSet<ActKey>,
    transcript: String,
    pending_output: String,
    firings: Vec<FiringRecord>,
    activation_seq: u64,
    fired_total: usize,
    matcher: Matcher,
    rete: ReteNetwork,
    /// When set, [`Engine::fire`] snapshots per-fact co-rule support
    /// from the match network before the RHS runs (see
    /// [`Engine::support_for`]). Off by default.
    capture_support: bool,
    /// Firing seq -> support captured at fire time. Lives and dies with
    /// the firing records; kept out of [`FiringRecord`] so the naive
    /// and Rete matchers stay byte-comparable.
    support_log: FxHashMap<usize, Vec<FactSupportRecord>>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// Creates an empty engine with the implicit `initial-fact` template,
    /// using the default [`Matcher`].
    pub fn new() -> Engine {
        Engine::with_matcher(Matcher::default())
    }

    /// Creates an empty engine using the given match algorithm. The
    /// matcher is fixed for the engine's lifetime.
    pub fn with_matcher(matcher: Matcher) -> Engine {
        let mut engine = Engine {
            templates: FxHashMap::default(),
            rules: Vec::new(),
            rule_names: FxHashMap::default(),
            wm: WorkingMemory::new(),
            globals: FxHashMap::default(),
            natives: FxHashMap::default(),
            userfns: FxHashMap::default(),
            strategy: Strategy::Depth,
            watch: false,
            trace: Vec::new(),
            deffacts: Vec::new(),
            agenda: BTreeMap::new(),
            agenda_keys: FxHashMap::default(),
            refraction: FxHashSet::default(),
            transcript: String::new(),
            pending_output: String::new(),
            firings: Vec::new(),
            activation_seq: 0,
            fired_total: 0,
            matcher,
            rete: ReteNetwork::new(),
            capture_support: false,
            support_log: FxHashMap::default(),
        };
        // The engine's match paths only ever probe the slot-value index
        // on slots named by compiled rule nodes (registered per rule in
        // `add_rule`); restricting the index to those slots keeps
        // assert/retract from maintaining buckets nothing reads.
        engine.wm.restrict_index();
        engine
            .add_template(Template::new("initial-fact", []))
            .expect("initial-fact is the first template");
        engine
    }

    /// The match algorithm this engine was constructed with.
    pub fn matcher(&self) -> Matcher {
        self.matcher
    }

    /// Counters describing the match network's work so far. All-zero
    /// when the naive matcher is active.
    pub fn match_stats(&self) -> MatchStats {
        self.rete.stats
    }

    // ----- construct registration -------------------------------------

    /// Registers a template.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Redefinition`] when the name is taken.
    pub fn add_template(&mut self, template: Template) -> Result<Arc<Template>> {
        let name: Arc<str> = Arc::from(template.name());
        if self.templates.contains_key(&name) {
            return Err(EngineError::Redefinition(name.to_string()));
        }
        let arc = Arc::new(template);
        self.templates.insert(name, arc.clone());
        Ok(arc)
    }

    /// Looks up a registered template.
    pub fn template(&self, name: &str) -> Option<&Arc<Template>> {
        self.templates.get(name)
    }

    /// Registers a rule, validating its patterns against known templates.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Redefinition`], [`EngineError::UnknownTemplate`]
    /// or [`EngineError::UnknownSlot`] on malformed rules.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        let name: Arc<str> = Arc::from(rule.name());
        if self.rule_names.contains_key(&name) {
            return Err(EngineError::Redefinition(name.to_string()));
        }
        for ce in rule.lhs() {
            if let CondElem::Pattern(p) | CondElem::Not(p) = ce {
                let template = self
                    .templates
                    .get(p.template.as_ref())
                    .ok_or_else(|| EngineError::UnknownTemplate(p.template.to_string()))?;
                for (slot, _) in &p.slots {
                    template.slot(slot)?;
                }
            }
        }
        // Rules without a positive pattern are seeded by `initial-fact`.
        let rule = if rule.needs_initial_fact() {
            let mut lhs = vec![CondElem::Pattern(crate::pattern::PatternCE::new("initial-fact"))];
            lhs.extend(rule.lhs().iter().cloned());
            let rebuilt = Rule::new(rule.name(), rule.salience(), lhs, rule.rhs().to_vec());
            match rule.doc() {
                Some(doc) => rebuilt.with_doc(doc),
                None => rebuilt,
            }
        } else {
            rule
        };
        let idx = self.rules.len();
        self.rules.push(Arc::new(rule));
        self.rule_names.insert(name, idx);
        // Register the slots this rule's compiled nodes will probe on the
        // working-memory index: the beta join key and the first constant
        // of each condition element (the two lookups `candidates` makes).
        {
            let nodes = crate::rete::compile::compile(&self.rules[idx], &self.templates);
            for (ce, node) in self.rules[idx].lhs().iter().zip(&nodes) {
                let (CondElem::Pattern(p) | CondElem::Not(p)) = ce else { continue };
                if let Some((slot, _)) = &node.join {
                    self.wm.index_slot(&p.template, *slot);
                }
                if let Some((slot, _)) = node.consts.first() {
                    self.wm.index_slot(&p.template, *slot);
                }
            }
        }
        match self.matcher {
            Matcher::Naive => self.recompute_rule(idx)?,
            Matcher::Rete => {
                let emissions = {
                    let mut host = MatchHost {
                        globals: &self.globals,
                        natives: &self.natives,
                        userfns: &self.userfns,
                    };
                    self.rete.add_production(
                        self.rules[idx].clone(),
                        &self.templates,
                        &self.wm,
                        &mut host,
                    )?
                };
                for em in emissions {
                    self.push_activation(em.rule, em.tuple, em.bindings);
                }
            }
        }
        Ok(())
    }

    /// Names of all registered rules, in definition order.
    pub fn rule_names(&self) -> impl Iterator<Item = &str> {
        self.rules.iter().map(|r| r.name())
    }

    /// Registers a user-defined function (`deffunction`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Redefinition`] when the name is taken.
    pub fn add_function(&mut self, f: UserFn) -> Result<()> {
        if self.userfns.contains_key(&f.name) {
            return Err(EngineError::Redefinition(f.name.to_string()));
        }
        self.userfns.insert(f.name.clone(), Arc::new(f));
        Ok(())
    }

    /// Sets the conflict-resolution strategy (CLIPS `set-strategy`).
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// Enables/disables CLIPS-style watch tracing of asserts, retracts
    /// and firings.
    pub fn set_watch(&mut self, on: bool) {
        self.watch = on;
    }

    /// Takes and clears the watch trace (one line per event, CLIPS
    /// shapes: `==> f-3 (…)`, `<== f-3 (…)`, `FIRE 1 rule: f-3`).
    pub fn take_trace(&mut self) -> Vec<String> {
        std::mem::take(&mut self.trace)
    }

    /// Registers a native function callable from rules.
    pub fn register_fn(
        &mut self,
        name: impl AsRef<str>,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.natives.insert(Arc::from(name.as_ref()), Arc::new(f));
    }

    /// Defines or updates a global (`?*name*`).
    pub fn set_global(&mut self, name: impl AsRef<str>, value: impl Into<Value>) {
        self.globals.insert(Arc::from(name.as_ref()), value.into());
    }

    /// Reads a global.
    pub fn get_global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Adds a fact asserted automatically by [`Engine::reset`].
    pub fn add_deffact(&mut self, fact: Fact) {
        self.deffacts.push(fact);
    }

    // ----- working memory ----------------------------------------------

    /// Starts building a fact of a registered template.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownTemplate`] for unknown names.
    pub fn fact(&self, template: &str) -> Result<FactBuilder> {
        let t = self
            .templates
            .get(template)
            .ok_or_else(|| EngineError::UnknownTemplate(template.to_string()))?;
        Ok(FactBuilder::new(t.clone()))
    }

    /// Asserts a fact; returns its id, or `None` for suppressed duplicates.
    ///
    /// # Errors
    ///
    /// Propagates pattern-evaluation errors raised while updating the
    /// agenda.
    pub fn assert_fact(&mut self, fact: Fact) -> Result<Option<FactId>> {
        let Some(id) = self.wm.assert(fact) else {
            return Ok(None);
        };
        if self.watch {
            let rendered = self.wm.get(id).map(|f| f.to_string()).unwrap_or_default();
            self.trace.push(format!("==> {id} {rendered}"));
        }
        self.on_assert(id)?;
        Ok(Some(id))
    }

    /// Retracts a fact by id.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoSuchFact`] for dead ids.
    pub fn retract_fact(&mut self, id: FactId) -> Result<()> {
        let fact = self.wm.retract(id)?;
        if self.watch {
            self.trace.push(format!("<== {id} {fact}"));
        }
        self.on_retract(id, fact.template().name())?;
        Ok(())
    }

    /// Live facts of a template, in assertion order.
    pub fn facts_of(&self, template: &str) -> Vec<(FactId, Arc<Fact>)> {
        self.wm
            .ids_of(template)
            .iter()
            .map(|id| (*id, self.wm.get(*id).expect("indexed fact is live").clone()))
            .collect()
    }

    /// Looks up a live fact.
    pub fn get_fact(&self, id: FactId) -> Option<Arc<Fact>> {
        self.wm.get(id).cloned()
    }

    /// Number of live facts.
    pub fn fact_count(&self) -> usize {
        self.wm.len()
    }

    /// Clears facts, agenda, refraction and transcript, then asserts
    /// `(initial-fact)` and all `deffacts`.
    ///
    /// # Errors
    ///
    /// Propagates errors from re-asserting `deffacts`.
    pub fn reset(&mut self) -> Result<()> {
        self.wm.clear();
        self.agenda.clear();
        self.agenda_keys.clear();
        self.refraction.clear();
        self.transcript.clear();
        self.firings.clear();
        self.support_log.clear();
        if self.matcher == Matcher::Rete {
            let mut host = MatchHost {
                globals: &self.globals,
                natives: &self.natives,
                userfns: &self.userfns,
            };
            self.rete.reset(&self.wm, &mut host)?;
        }
        self.assert_fact(Fact::with_defaults(self.templates["initial-fact"].clone()))?;
        for fact in self.deffacts.clone() {
            self.assert_fact(fact)?;
        }
        Ok(())
    }

    // ----- agenda maintenance -------------------------------------------

    fn push_activation(&mut self, rule: usize, facts: Vec<Option<FactId>>, bindings: Bindings) {
        let key = (rule, facts.clone());
        if self.refraction.contains(&key) || self.agenda_keys.contains_key(&key) {
            return;
        }
        self.activation_seq += 1;
        let salience = self.rules[rule].salience();
        let order = (salience, self.activation_seq);
        self.agenda_keys.insert(key, order);
        self.agenda.insert(
            order,
            Activation { rule, facts, bindings, salience, seq: self.activation_seq },
        );
    }

    /// Removes one activation by identity. Returns false if it was not
    /// on the agenda (already fired, or suppressed by refraction).
    fn remove_activation(&mut self, key: &ActKey) -> bool {
        match self.agenda_keys.remove(key) {
            Some(order) => {
                self.agenda.remove(&order);
                true
            }
            None => false,
        }
    }

    fn remove_rule_activations(&mut self, rule: usize) {
        let doomed: Vec<ActKey> =
            self.agenda_keys.keys().filter(|(r, _)| *r == rule).cloned().collect();
        for key in doomed {
            self.remove_activation(&key);
        }
    }

    /// Recomputes all activations of one rule from scratch.
    fn recompute_rule(&mut self, rule_idx: usize) -> Result<()> {
        self.remove_rule_activations(rule_idx);
        let matches = {
            let mut host = MatchHost {
                globals: &self.globals,
                natives: &self.natives,
                userfns: &self.userfns,
            };
            compute_matches(&self.wm, &self.rules[rule_idx], None, &mut host)?
        };
        for (facts, bindings) in matches {
            self.push_activation(rule_idx, facts, bindings);
        }
        Ok(())
    }

    /// Applies a network update to the agenda: targeted removals first,
    /// then new matches in the network's (naive-equivalent) order, then
    /// full resequences of negated rules with fresh sequence numbers.
    fn apply_outcome(&mut self, outcome: UpdateOutcome) {
        for key in &outcome.removals {
            self.remove_activation(key);
        }
        for em in outcome.pushes {
            self.push_activation(em.rule, em.tuple, em.bindings);
        }
        for (rule, matches) in outcome.resequences {
            self.remove_rule_activations(rule);
            for em in matches {
                self.push_activation(em.rule, em.tuple, em.bindings);
            }
        }
    }

    fn on_assert(&mut self, id: FactId) -> Result<()> {
        if self.matcher == Matcher::Rete {
            let outcome = {
                let mut host = MatchHost {
                    globals: &self.globals,
                    natives: &self.natives,
                    userfns: &self.userfns,
                };
                self.rete.on_assert(id, &self.wm, &mut host)?
            };
            self.apply_outcome(outcome);
            return Ok(());
        }
        let fact = self.wm.get(id).expect("just asserted").clone();
        let template = fact.template().name().to_string();
        let mut seeded: Vec<(usize, Vec<Match>)> = Vec::new();
        let mut recompute: Vec<usize> = Vec::new();
        {
            let mut host = MatchHost {
                globals: &self.globals,
                natives: &self.natives,
                userfns: &self.userfns,
            };
            for (ri, rule) in self.rules.iter().enumerate() {
                let negated_on_template = rule
                    .lhs()
                    .iter()
                    .any(|ce| matches!(ce, CondElem::Not(p) if p.template.as_ref() == template));
                if negated_on_template {
                    // Negation may invalidate existing activations and the
                    // seed-join below cannot see that; recompute fully.
                    recompute.push(ri);
                    continue;
                }
                let mut rule_matches = Vec::new();
                for (pos, p) in rule.positive_positions() {
                    if p.template.as_ref() == template {
                        rule_matches.extend(compute_matches(
                            &self.wm,
                            rule,
                            Some((pos, id)),
                            &mut host,
                        )?);
                    }
                }
                if !rule_matches.is_empty() {
                    seeded.push((ri, rule_matches));
                }
            }
        }
        for (ri, matches) in seeded {
            for (facts, bindings) in matches {
                self.push_activation(ri, facts, bindings);
            }
        }
        for ri in recompute {
            self.recompute_rule(ri)?;
        }
        Ok(())
    }

    fn on_retract(&mut self, id: FactId, template: &str) -> Result<()> {
        if self.matcher == Matcher::Rete {
            let outcome = {
                let mut host = MatchHost {
                    globals: &self.globals,
                    natives: &self.natives,
                    userfns: &self.userfns,
                };
                self.rete.on_retract(id, template, &self.wm, &mut host)?
            };
            self.apply_outcome(outcome);
            return Ok(());
        }
        let doomed: Vec<ActKey> = self
            .agenda_keys
            .keys()
            .filter(|(_, facts)| facts.contains(&Some(id)))
            .cloned()
            .collect();
        for key in doomed {
            self.remove_activation(&key);
        }
        let recompute: Vec<usize> = self
            .rules
            .iter()
            .enumerate()
            .filter(|(_, rule)| {
                rule.lhs()
                    .iter()
                    .any(|ce| matches!(ce, CondElem::Not(p) if p.template.as_ref() == template))
            })
            .map(|(ri, _)| ri)
            .collect();
        for ri in recompute {
            self.recompute_rule(ri)?;
        }
        Ok(())
    }

    // ----- execution ------------------------------------------------------

    /// Number of activations currently eligible to fire.
    pub fn agenda_len(&self) -> usize {
        self.agenda.len()
    }

    /// Snapshot of the agenda in firing order: `(rule name, fact ids)`
    /// pairs, the next activation to fire first (CLIPS `agenda`).
    pub fn agenda(&self) -> Vec<(String, Vec<FactId>)> {
        let mut entries: Vec<&Activation> = self.agenda.values().collect();
        match self.strategy {
            Strategy::Depth => {
                entries.sort_by_key(|a| (std::cmp::Reverse(a.salience), std::cmp::Reverse(a.seq)));
            }
            Strategy::Breadth => {
                entries.sort_by(|a, b| b.salience.cmp(&a.salience).then(a.seq.cmp(&b.seq)));
            }
        }
        entries
            .into_iter()
            .map(|a| {
                (self.rules[a.rule].name().to_string(), a.facts.iter().flatten().copied().collect())
            })
            .collect()
    }

    /// Runs the match–resolve–act loop until the agenda empties or `limit`
    /// firings occurred. Returns the number of rules fired.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from rule right-hand sides.
    pub fn run(&mut self, limit: Option<usize>) -> Result<usize> {
        let _span = hth_trace::span("engine.run");
        let mut fired = 0;
        while limit.is_none_or(|l| fired < l) {
            let best = self.pick_activation();
            let Some(best) = best else {
                break;
            };
            self.fire(best)?;
            fired += 1;
        }
        Ok(fired)
    }

    fn pick_activation(&mut self) -> Option<Activation> {
        let order = match self.strategy {
            // Highest salience, then highest seq: the greatest key.
            Strategy::Depth => *self.agenda.last_key_value()?.0,
            // Highest salience, then lowest seq: the first key within the
            // top salience bucket.
            Strategy::Breadth => {
                let top_salience = self.agenda.last_key_value()?.0 .0;
                *self.agenda.range((top_salience, 0)..).next()?.0
            }
        };
        let act = self.agenda.remove(&order).expect("picked key is on the agenda");
        self.agenda_keys.remove(&(act.rule, act.facts.clone()));
        Some(act)
    }

    fn fire(&mut self, act: Activation) -> Result<()> {
        self.refraction.insert((act.rule, act.facts.clone()));
        let rule = self.rules[act.rule].clone();
        if self.watch {
            let ids: Vec<String> = act.facts.iter().flatten().map(|id| id.to_string()).collect();
            self.trace.push(format!(
                "FIRE {} {}: {}",
                self.fired_total + 1,
                rule.name(),
                ids.join(",")
            ));
        }
        let fact_snapshots: Vec<Arc<Fact>> =
            act.facts.iter().flatten().filter_map(|id| self.wm.get(*id).cloned()).collect();
        // Support is a picture of the match network *at fire time*: the
        // RHS below may retract these very facts, so snapshot first.
        if self.capture_support && self.matcher == Matcher::Rete {
            let support: Vec<FactSupportRecord> = act
                .facts
                .iter()
                .flatten()
                .map(|id| FactSupportRecord {
                    fact: id.raw(),
                    co_rules: self
                        .rete
                        .rules_using(*id)
                        .into_iter()
                        .map(|prod| self.rules[prod].name_arc().clone())
                        .filter(|name| name.as_ref() != rule.name())
                        .collect(),
                })
                .collect();
            self.support_log.insert(self.fired_total + 1, support);
        }
        self.pending_output.clear();
        let mut bindings = act.bindings.clone();
        for action in rule.rhs() {
            eval(action, &mut bindings, self)?;
        }
        self.fired_total += 1;
        let output = std::mem::take(&mut self.pending_output);
        self.transcript.push_str(&output);
        self.firings.push(FiringRecord {
            seq: self.fired_total,
            rule: rule.name_arc().clone(),
            fact_ids: act.facts,
            facts: fact_snapshots,
            output,
        });
        Ok(())
    }

    // ----- results --------------------------------------------------------

    /// Firing records accumulated since the last [`Engine::reset`] (or
    /// [`Engine::clear_firings`]).
    pub fn firings(&self) -> &[FiringRecord] {
        &self.firings
    }

    /// Drops accumulated firing records (the transcript is kept).
    pub fn clear_firings(&mut self) {
        self.firings.clear();
        self.support_log.clear();
    }

    /// Enables or disables per-firing support capture. While on, every
    /// firing records which *other* rules' live matches were consuming
    /// its supporting facts (see [`Engine::support_for`]). Off by
    /// default; only the Rete matcher has the match memory to answer.
    pub fn set_support_capture(&mut self, on: bool) {
        self.capture_support = on;
    }

    /// Match-network support captured for firing `seq` (the value in
    /// [`FiringRecord::seq`]). `None` when capture was off, the seq is
    /// unknown, or the naive matcher is active.
    pub fn support_for(&self, seq: usize) -> Option<&[FactSupportRecord]> {
        self.support_log.get(&seq).map(Vec::as_slice)
    }

    /// Names of rules whose live (partial or complete) matches currently
    /// consume fact `id`, straight from the match network's fact -> token
    /// back-references. Empty under the naive matcher.
    pub fn rules_using_fact(&self, id: FactId) -> Vec<&str> {
        self.rete.rules_using(id).into_iter().map(|prod| self.rules[prod].name()).collect()
    }

    /// Total rules fired over the engine's lifetime.
    pub fn fired_total(&self) -> usize {
        self.fired_total
    }

    // ----- snapshot / restore ---------------------------------------------

    /// Captures the engine's mutable state as an [`EngineSnapshot`].
    ///
    /// Snapshots are only taken at quiescence (empty agenda), which
    /// [`Engine::run`] always drains to: at that point every complete,
    /// unblocked match has fired and sits in the refraction set, so the
    /// agenda itself need not be carried — restoring the facts re-derives
    /// it (empty). Refraction keys naming retracted facts are pruned: ids
    /// are never reused, so those matches can never recur. Firing records
    /// and the transcript are diagnostics of the *past*, not inputs to
    /// future matching, and are not carried.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Type`] when the agenda is non-empty.
    pub fn snapshot(&self) -> Result<EngineSnapshot> {
        if !self.agenda.is_empty() {
            return Err(EngineError::Type {
                expected: "quiescent engine (empty agenda)",
                found: format!("{} pending activations", self.agenda.len()),
            });
        }
        let mut facts: Vec<FactRecord> = self
            .wm
            .iter()
            .map(|(id, fact)| FactRecord {
                id: id.raw(),
                template: fact.template().name_arc().clone(),
                slots: fact.slots().to_vec(),
            })
            .collect();
        facts.sort_by_key(|rec| rec.id);
        let mut refraction: Vec<(Arc<str>, Vec<Option<u64>>)> = self
            .refraction
            .iter()
            .filter(|(_, tuple)| tuple.iter().flatten().all(|id| self.wm.get(*id).is_some()))
            .map(|(rule, tuple)| {
                (
                    self.rules[*rule].name_arc().clone(),
                    tuple.iter().map(|slot| slot.map(FactId::raw)).collect(),
                )
            })
            .collect();
        refraction.sort();
        Ok(EngineSnapshot {
            facts,
            next_fact_id: self.wm.next_id(),
            refraction,
            activation_seq: self.activation_seq,
            fired_total: self.fired_total as u64,
            match_stats: self.rete.stats,
        })
    }

    /// Rebuilds the engine's mutable state from a snapshot taken against
    /// the *same policy* (templates and rules must already be loaded).
    ///
    /// The refraction set is installed first, then every fact is
    /// re-asserted in ascending id order with its original id through the
    /// normal assert path — the match network re-derives all matches, and
    /// refraction suppresses exactly the ones that had already fired,
    /// leaving the agenda empty. The match counters are then restored
    /// wholesale, since the rebuild perturbs them relative to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot names templates or rules this
    /// policy lacks, a fact fails to re-assert with its recorded id, or
    /// the agenda is unexpectedly non-empty afterwards. Validation
    /// failures are detected before any state is touched; later failures
    /// leave the engine in need of another restore (or [`Engine::reset`]).
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<()> {
        for (rule, _) in &snap.refraction {
            if !self.rule_names.contains_key(rule) {
                return Err(EngineError::Type {
                    expected: "rule known to this policy",
                    found: rule.to_string(),
                });
            }
        }
        let mut prev_id = 0u64;
        for rec in &snap.facts {
            if !self.templates.contains_key(&rec.template) {
                return Err(EngineError::UnknownTemplate(rec.template.to_string()));
            }
            if rec.id <= prev_id {
                return Err(EngineError::Type {
                    expected: "ascending positive fact ids",
                    found: format!("f-{} after f-{prev_id}", rec.id),
                });
            }
            prev_id = rec.id;
        }
        self.wm.clear();
        self.agenda.clear();
        self.agenda_keys.clear();
        self.refraction.clear();
        self.transcript.clear();
        self.pending_output.clear();
        self.firings.clear();
        self.support_log.clear();
        self.trace.clear();
        if self.matcher == Matcher::Rete {
            let mut host = MatchHost {
                globals: &self.globals,
                natives: &self.natives,
                userfns: &self.userfns,
            };
            self.rete.reset(&self.wm, &mut host)?;
        }
        // Refraction before facts: each re-assert below re-derives the
        // matches the fact completes, and the already-fired ones must be
        // suppressed as they land.
        for (rule, tuple) in &snap.refraction {
            let idx = self.rule_names[rule];
            self.refraction.insert((idx, tuple.iter().map(|s| s.map(FactId::from_raw)).collect()));
        }
        // Watch tracing off for the replay: these asserts are
        // reconstruction, not new activity.
        let watch = std::mem::replace(&mut self.watch, false);
        let replayed = self.restore_facts(snap);
        self.watch = watch;
        replayed?;
        if !self.agenda.is_empty() {
            return Err(EngineError::Type {
                expected: "empty agenda after restore",
                found: format!("{} activations", self.agenda.len()),
            });
        }
        self.activation_seq = snap.activation_seq;
        self.fired_total = snap.fired_total as usize;
        self.rete.stats = snap.match_stats;
        Ok(())
    }

    fn restore_facts(&mut self, snap: &EngineSnapshot) -> Result<()> {
        for rec in &snap.facts {
            let template = self.templates[&rec.template].clone();
            let fact = Fact::from_parts(template, rec.slots.clone())?;
            self.wm.set_next_id(rec.id - 1);
            if self.assert_fact(fact)? != Some(FactId::from_raw(rec.id)) {
                return Err(EngineError::Type {
                    expected: "snapshot fact to re-assert under its recorded id",
                    found: format!("f-{} collapsed as a duplicate", rec.id),
                });
            }
        }
        self.wm.set_next_id(snap.next_fact_id);
        Ok(())
    }

    /// Approximate resident bytes attributable to this engine's event
    /// stream: working memory, match-network tokens and memories,
    /// refraction keys, transcript, trace, and firing records. The rule
    /// base and templates are excluded — they are fixed per policy and
    /// shared across sessions, not a per-session growth surface.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = self.wm.approx_bytes() + self.rete.approx_bytes();
        bytes += self.refraction.iter().map(|(_, tuple)| 32 + tuple.len() * 16).sum::<usize>();
        bytes += self.agenda_keys.len() * 64;
        bytes += self.transcript.len() + self.pending_output.len();
        bytes += self.trace.iter().map(|line| line.len() + 24).sum::<usize>();
        for firing in &self.firings {
            bytes += std::mem::size_of::<FiringRecord>()
                + firing.output.len()
                + firing.fact_ids.len() * 16
                + firing.facts.len() * 8;
        }
        bytes
    }

    /// Takes and clears the printout transcript.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.transcript)
    }
}

impl Host for Engine {
    fn global(&self, name: &str) -> Result<Value> {
        self.globals.get(name).cloned().ok_or_else(|| EngineError::UnknownGlobal(name.to_string()))
    }

    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        match builtins::call(name, args) {
            Err(EngineError::UnknownFunction(_)) => match self.natives.get(name).cloned() {
                Some(f) => f(args),
                None => match self.userfns.get(name).cloned() {
                    Some(f) => {
                        let mut bindings = bind_userfn_args(&f, args)?;
                        let mut last = Value::falsity();
                        for expr in &f.body {
                            last = eval(expr, &mut bindings, self)?;
                        }
                        Ok(last)
                    }
                    None => Err(EngineError::UnknownFunction(name.to_string())),
                },
            },
            other => other,
        }
    }

    fn assert(&mut self, template: &str, slots: &[(Arc<str>, Value)]) -> Result<Value> {
        let t = self
            .templates
            .get(template)
            .ok_or_else(|| EngineError::UnknownTemplate(template.to_string()))?
            .clone();
        let mut fact = Fact::with_defaults(t);
        for (slot, value) in slots {
            fact.set(slot, value.clone())?;
        }
        Ok(match self.assert_fact(fact)? {
            Some(id) => Value::Fact(id),
            None => Value::falsity(),
        })
    }

    fn retract(&mut self, id: FactId) -> Result<()> {
        self.retract_fact(id)
    }

    fn print(&mut self, text: &str) -> Result<()> {
        self.pending_output.push_str(text);
        Ok(())
    }

    fn modify(&mut self, id: FactId, slots: &[(Arc<str>, Value)]) -> Result<Value> {
        let old = self.wm.get(id).ok_or(EngineError::NoSuchFact(id.raw()))?;
        let mut fact = (**old).clone();
        for (slot, value) in slots {
            fact.set(slot, value.clone())?;
        }
        self.retract_fact(id)?;
        Ok(match self.assert_fact(fact)? {
            Some(new_id) => Value::Fact(new_id),
            None => Value::falsity(),
        })
    }
}

/// Binds deffunction arguments to its parameters.
fn bind_userfn_args(f: &UserFn, args: &[Value]) -> Result<Bindings> {
    if args.len() < f.params.len() || (f.wildcard.is_none() && args.len() != f.params.len()) {
        return Err(EngineError::Type {
            expected: "matching deffunction arity",
            found: format!(
                "{} called with {} arguments, expects {}",
                f.name,
                args.len(),
                f.params.len()
            ),
        });
    }
    let mut bindings = Bindings::new();
    for (param, value) in f.params.iter().zip(args) {
        bindings.insert(param.clone(), value.clone());
    }
    if let Some(rest) = &f.wildcard {
        bindings.insert(rest.clone(), Value::multi(args[f.params.len()..].iter().cloned()));
    }
    Ok(bindings)
}

/// Enumerates all consistent matches of `rule` against working memory.
/// With `seed = Some((pos, id))`, only matches using fact `id` at LHS
/// position `pos` are produced (incremental assert path).
fn compute_matches(
    wm: &WorkingMemory,
    rule: &Rule,
    seed: Option<(usize, FactId)>,
    host: &mut dyn Host,
) -> Result<Vec<Match>> {
    let mut out = Vec::new();
    let mut facts = Vec::with_capacity(rule.lhs().len());
    dfs(wm, rule.lhs(), 0, seed, &Bindings::new(), &mut facts, &mut out, host)?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    wm: &WorkingMemory,
    lhs: &[CondElem],
    idx: usize,
    seed: Option<(usize, FactId)>,
    bindings: &Bindings,
    facts: &mut Vec<Option<FactId>>,
    out: &mut Vec<Match>,
    host: &mut dyn Host,
) -> Result<()> {
    if idx == lhs.len() {
        out.push((facts.clone(), bindings.clone()));
        return Ok(());
    }
    match &lhs[idx] {
        CondElem::Pattern(p) => {
            let seeded_here = matches!(seed, Some((pos, _)) if pos == idx);
            let candidates: Vec<FactId> = if seeded_here {
                vec![seed.expect("checked").1]
            } else {
                wm.ids_of(&p.template).to_vec()
            };
            for cid in candidates {
                let Some(fact) = wm.get(cid) else { continue };
                let mut extended = bindings.clone();
                if p.matches(fact, &mut extended, host)? {
                    if let Some(var) = &p.binding {
                        // `?f <-` rebinding to a different fact must fail.
                        match extended.get(var.as_ref()) {
                            Some(existing) if existing != &Value::Fact(cid) => continue,
                            _ => {
                                extended.insert(var.clone(), Value::Fact(cid));
                            }
                        }
                    }
                    facts.push(Some(cid));
                    dfs(wm, lhs, idx + 1, seed, &extended, facts, out, host)?;
                    facts.pop();
                }
            }
        }
        CondElem::Not(p) => {
            let mut any = false;
            for cid in wm.ids_of(&p.template) {
                let fact = wm.get(*cid).expect("indexed fact is live");
                let mut scratch = bindings.clone();
                if p.matches(fact, &mut scratch, host)? {
                    any = true;
                    break;
                }
            }
            if !any {
                facts.push(None);
                dfs(wm, lhs, idx + 1, seed, bindings, facts, out, host)?;
                facts.pop();
            }
        }
        CondElem::Test(expr) => {
            let mut scratch = bindings.clone();
            if eval(expr, &mut scratch, host)?.is_truthy() {
                facts.push(None);
                dfs(wm, lhs, idx + 1, seed, &scratch, facts, out, host)?;
                facts.pop();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::pattern::{FieldConstraint, PatternCE, SlotPattern};
    use crate::rule::RuleBuilder;
    use crate::template::SlotDef;

    fn engine_with_event() -> Engine {
        let mut e = Engine::new();
        e.add_template(Template::new("event", [SlotDef::single("kind"), SlotDef::single("n")]))
            .unwrap();
        e
    }

    fn event(e: &Engine, kind: &str, n: i64) -> Fact {
        e.fact("event").unwrap().slot("kind", Value::sym(kind)).slot("n", n).build().unwrap()
    }

    #[test]
    fn simple_rule_fires_once_per_fact() {
        let mut e = engine_with_event();
        e.add_rule(
            RuleBuilder::new("r")
                .pattern(PatternCE::new("event").slot(
                    "kind",
                    SlotPattern::Single(FieldConstraint::literal(Value::sym("open"))),
                ))
                .action(Expr::Printout(vec![Expr::lit("hit"), Expr::lit(Value::sym("crlf"))]))
                .build(),
        )
        .unwrap();
        e.assert_fact(event(&e, "open", 1)).unwrap();
        e.assert_fact(event(&e, "close", 2)).unwrap();
        assert_eq!(e.run(None).unwrap(), 1);
        assert_eq!(e.take_output(), "hit\n");
        // Refraction: running again fires nothing.
        assert_eq!(e.run(None).unwrap(), 0);
        // A new identical-but-distinct fact fires again.
        e.assert_fact(event(&e, "open", 3)).unwrap();
        assert_eq!(e.run(None).unwrap(), 1);
    }

    #[test]
    fn duplicate_facts_are_suppressed() {
        let mut e = engine_with_event();
        let id = e.assert_fact(event(&e, "open", 1)).unwrap();
        assert!(id.is_some());
        assert!(e.assert_fact(event(&e, "open", 1)).unwrap().is_none());
        assert_eq!(e.fact_count(), 1);
    }

    #[test]
    fn salience_orders_firing() {
        let mut e = engine_with_event();
        for (name, salience, tag) in [("low", 0, "L"), ("high", 10, "H")] {
            e.add_rule(
                RuleBuilder::new(name)
                    .salience(salience)
                    .pattern(PatternCE::new("event"))
                    .action(Expr::Printout(vec![Expr::lit(tag)]))
                    .build(),
            )
            .unwrap();
        }
        e.assert_fact(event(&e, "open", 1)).unwrap();
        e.run(None).unwrap();
        assert_eq!(e.take_output(), "HL");
    }

    #[test]
    fn retract_removes_pending_activation() {
        let mut e = engine_with_event();
        e.add_rule(
            RuleBuilder::new("r").pattern(PatternCE::new("event")).action(Expr::lit(1)).build(),
        )
        .unwrap();
        let id = e.assert_fact(event(&e, "open", 1)).unwrap().unwrap();
        assert_eq!(e.agenda_len(), 1);
        e.retract_fact(id).unwrap();
        assert_eq!(e.agenda_len(), 0);
        assert_eq!(e.run(None).unwrap(), 0);
    }

    #[test]
    fn rhs_can_retract_matched_fact() {
        let mut e = engine_with_event();
        e.add_rule(
            RuleBuilder::new("consume")
                .pattern(PatternCE::new("event").bind("f"))
                .action(Expr::Retract(vec![Expr::var("f")]))
                .build(),
        )
        .unwrap();
        e.assert_fact(event(&e, "open", 1)).unwrap();
        e.assert_fact(event(&e, "open", 2)).unwrap();
        assert_eq!(e.run(None).unwrap(), 2);
        assert_eq!(e.fact_count(), 0, "both events consumed");
    }

    #[test]
    fn rhs_assert_triggers_further_rules() {
        let mut e = engine_with_event();
        e.add_template(Template::new("alarm", [SlotDef::single("level")])).unwrap();
        e.add_rule(
            RuleBuilder::new("escalate")
                .pattern(
                    PatternCE::new("event").slot(
                        "kind",
                        SlotPattern::Single(FieldConstraint::literal(Value::sym("bad"))),
                    ),
                )
                .action(Expr::Assert {
                    template: Arc::from("alarm"),
                    slots: vec![(Arc::from("level"), vec![Expr::lit(Value::sym("HIGH"))])],
                })
                .build(),
        )
        .unwrap();
        e.add_rule(
            RuleBuilder::new("report")
                .pattern(PatternCE::new("alarm"))
                .action(Expr::Printout(vec![Expr::lit("ALARM")]))
                .build(),
        )
        .unwrap();
        e.assert_fact(event(&e, "bad", 1)).unwrap();
        assert_eq!(e.run(None).unwrap(), 2);
        assert_eq!(e.take_output(), "ALARM");
    }

    #[test]
    fn not_ce_blocks_and_unblocks() {
        let mut e = engine_with_event();
        e.add_template(Template::new("mute", [])).unwrap();
        e.add_rule(
            RuleBuilder::new("warn")
                .pattern(PatternCE::new("event"))
                .not(PatternCE::new("mute"))
                .action(Expr::Printout(vec![Expr::lit("W")]))
                .build(),
        )
        .unwrap();
        let mute = Fact::with_defaults(e.template("mute").unwrap().clone());
        let mute_id = e.assert_fact(mute).unwrap().unwrap();
        e.assert_fact(event(&e, "open", 1)).unwrap();
        assert_eq!(e.agenda_len(), 0, "mute blocks the rule");
        e.retract_fact(mute_id).unwrap();
        assert_eq!(e.agenda_len(), 1, "retraction re-enables it");
        assert_eq!(e.run(None).unwrap(), 1);
    }

    #[test]
    fn test_ce_filters_on_bindings() {
        let mut e = engine_with_event();
        e.add_rule(
            RuleBuilder::new("big")
                .pattern(
                    PatternCE::new("event")
                        .slot("n", SlotPattern::Single(FieldConstraint::var("n"))),
                )
                .test(Expr::call(">", [Expr::var("n"), Expr::lit(5)]))
                .action(Expr::Printout(vec![Expr::var("n")]))
                .build(),
        )
        .unwrap();
        e.assert_fact(event(&e, "a", 3)).unwrap();
        e.assert_fact(event(&e, "b", 9)).unwrap();
        assert_eq!(e.run(None).unwrap(), 1);
        assert_eq!(e.take_output(), "9");
    }

    #[test]
    fn join_two_patterns_with_shared_variable() {
        let mut e = Engine::new();
        e.add_template(Template::new("open", [SlotDef::single("path")])).unwrap();
        e.add_template(Template::new("write", [SlotDef::single("path")])).unwrap();
        e.add_rule(
            RuleBuilder::new("open-then-write")
                .pattern(
                    PatternCE::new("open")
                        .slot("path", SlotPattern::Single(FieldConstraint::var("p"))),
                )
                .pattern(
                    PatternCE::new("write")
                        .slot("path", SlotPattern::Single(FieldConstraint::var("p"))),
                )
                .action(Expr::Printout(vec![Expr::var("p")]))
                .build(),
        )
        .unwrap();
        let open = e.fact("open").unwrap().slot("path", "/a").build().unwrap();
        let write_other = e.fact("write").unwrap().slot("path", "/b").build().unwrap();
        let write_same = e.fact("write").unwrap().slot("path", "/a").build().unwrap();
        e.assert_fact(open).unwrap();
        e.assert_fact(write_other).unwrap();
        e.assert_fact(write_same).unwrap();
        assert_eq!(e.run(None).unwrap(), 1);
        assert_eq!(e.take_output(), "/a");
    }

    #[test]
    fn reset_restores_deffacts_and_allows_refiring() {
        let mut e = engine_with_event();
        e.add_rule(
            RuleBuilder::new("r")
                .pattern(PatternCE::new("event"))
                .action(Expr::Printout(vec![Expr::lit("x")]))
                .build(),
        )
        .unwrap();
        e.add_deffact(event(&e, "open", 1));
        e.reset().unwrap();
        assert_eq!(e.run(None).unwrap(), 1);
        e.reset().unwrap();
        assert_eq!(e.run(None).unwrap(), 1, "refraction cleared by reset");
    }

    #[test]
    fn rule_without_positive_pattern_fires_after_reset() {
        let mut e = Engine::new();
        e.add_rule(
            RuleBuilder::new("startup")
                .test(Expr::lit(true))
                .action(Expr::Printout(vec![Expr::lit("boot")]))
                .build(),
        )
        .unwrap();
        e.reset().unwrap();
        assert_eq!(e.run(None).unwrap(), 1);
        assert_eq!(e.take_output(), "boot");
    }

    #[test]
    fn firing_records_capture_explanation() {
        let mut e = engine_with_event();
        e.add_rule(
            RuleBuilder::new("r")
                .pattern(PatternCE::new("event").bind("f"))
                .action(Expr::Printout(vec![Expr::lit("saw it")]))
                .build(),
        )
        .unwrap();
        e.assert_fact(event(&e, "open", 7)).unwrap();
        e.run(None).unwrap();
        let rec = &e.firings()[0];
        assert_eq!(rec.rule.as_ref(), "r");
        assert_eq!(rec.output, "saw it");
        assert!(rec.facts[0].to_string().contains("(kind open)"));
    }

    #[test]
    fn native_functions_are_callable() {
        let mut e = engine_with_event();
        e.register_fn("double", |args| Ok(Value::Int(args[0].as_int()? * 2)));
        e.add_rule(
            RuleBuilder::new("r")
                .pattern(
                    PatternCE::new("event")
                        .slot("n", SlotPattern::Single(FieldConstraint::var("n"))),
                )
                .test(Expr::call("=", [Expr::call("double", [Expr::var("n")]), Expr::lit(8)]))
                .action(Expr::Printout(vec![Expr::lit("four")]))
                .build(),
        )
        .unwrap();
        e.assert_fact(event(&e, "a", 4)).unwrap();
        e.assert_fact(event(&e, "b", 5)).unwrap();
        assert_eq!(e.run(None).unwrap(), 1);
    }

    #[test]
    fn run_limit_is_respected() {
        let mut e = engine_with_event();
        e.add_rule(
            RuleBuilder::new("r").pattern(PatternCE::new("event")).action(Expr::lit(0)).build(),
        )
        .unwrap();
        for i in 0..5 {
            e.assert_fact(event(&e, "k", i)).unwrap();
        }
        assert_eq!(e.run(Some(2)).unwrap(), 2);
        assert_eq!(e.agenda_len(), 3);
    }

    /// A policy with a plain rule, a negated rule (exercising the
    /// transient-activation path during restore), and a consuming rule
    /// (so refraction keys over retracted facts get pruned).
    fn snapshot_policy() -> Engine {
        let mut e = engine_with_event();
        e.add_template(Template::new("alarm", [SlotDef::single("level")])).unwrap();
        e.add_rule(
            RuleBuilder::new("on-bad")
                .pattern(
                    PatternCE::new("event").slot(
                        "kind",
                        SlotPattern::Single(FieldConstraint::literal(Value::sym("bad"))),
                    ),
                )
                .action(Expr::Assert {
                    template: Arc::from("alarm"),
                    slots: vec![(Arc::from("level"), vec![Expr::lit(Value::sym("HIGH"))])],
                })
                .action(Expr::Printout(vec![Expr::lit("bad!")]))
                .build(),
        )
        .unwrap();
        e.add_rule(
            RuleBuilder::new("quiet")
                .pattern(PatternCE::new("event").slot(
                    "kind",
                    SlotPattern::Single(FieldConstraint::literal(Value::sym("open"))),
                ))
                .not(PatternCE::new("alarm"))
                .action(Expr::Printout(vec![Expr::lit("calm")]))
                .build(),
        )
        .unwrap();
        e.add_rule(
            RuleBuilder::new("consume-close")
                .pattern(PatternCE::new("event").bind("f").slot(
                    "kind",
                    SlotPattern::Single(FieldConstraint::literal(Value::sym("close"))),
                ))
                .action(Expr::Retract(vec![Expr::var("f")]))
                .build(),
        )
        .unwrap();
        e
    }

    #[test]
    fn snapshot_restore_is_indistinguishable_from_uninterrupted_run() {
        let stream =
            [("open", 1), ("close", 2), ("bad", 3), ("open", 4), ("close", 5), ("open", 6)];
        for cut in 0..=stream.len() {
            let mut uncut = snapshot_policy();
            let mut first = snapshot_policy();
            for (kind, n) in &stream[..cut] {
                first.assert_fact(event(&first, kind, *n)).unwrap();
                first.run(None).unwrap();
            }
            let snap = first.snapshot().unwrap();
            let decoded = EngineSnapshot::decode(&snap.encode()).unwrap();
            assert_eq!(decoded, snap, "codec round-trip at cut {cut}");
            let mut resumed = snapshot_policy();
            resumed.restore(&decoded).unwrap();
            for (kind, n) in &stream {
                uncut.assert_fact(event(&uncut, kind, *n)).unwrap();
                uncut.run(None).unwrap();
            }
            first.take_output();
            for (kind, n) in &stream[cut..] {
                for e in [&mut first, &mut resumed] {
                    e.assert_fact(event(e, kind, *n)).unwrap();
                    e.run(None).unwrap();
                }
            }
            assert_eq!(resumed.take_output(), first.take_output(), "tail output at cut {cut}");
            for e in [&first, &resumed] {
                assert_eq!(e.fired_total(), uncut.fired_total(), "firing count at cut {cut}");
                assert_eq!(e.match_stats(), uncut.match_stats(), "match stats at cut {cut}");
                assert_eq!(e.fact_count(), uncut.fact_count(), "fact count at cut {cut}");
                assert_eq!(
                    e.snapshot().unwrap(),
                    uncut.snapshot().unwrap(),
                    "final snapshot at cut {cut}"
                );
            }
        }
    }

    /// A clone taken at any point continues exactly like the engine it
    /// was taken from, and what either side changes afterwards (rules,
    /// natives, globals, facts) stays on that side.
    #[test]
    fn a_clone_runs_like_its_original_and_apart_from_it() {
        let stream =
            [("open", 1), ("close", 2), ("bad", 3), ("open", 4), ("close", 5), ("open", 6)];
        for cut in 0..=stream.len() {
            let mut original = snapshot_policy();
            original.reset().unwrap();
            for (kind, n) in &stream[..cut] {
                original.assert_fact(event(&original, kind, *n)).unwrap();
                original.run(None).unwrap();
            }
            let mut sibling = original.clone();
            sibling
                .add_rule(
                    RuleBuilder::new("sibling-only")
                        .pattern(PatternCE::new("event"))
                        .action(Expr::Printout(vec![Expr::lit("S")]))
                        .build(),
                )
                .unwrap();
            sibling.register_fn("sibling-fn", |_| Ok(Value::truth()));
            sibling.set_global("SIBLING", 1);
            sibling.assert_fact(event(&sibling, "open", 99)).unwrap();
            sibling.run(None).unwrap();
            let mut copy = original.clone();
            assert!(original.rule_names().chain(copy.rule_names()).all(|r| r != "sibling-only"));
            assert!(copy.get_global("SIBLING").is_none());
            assert!(copy.call("sibling-fn", &[]).is_err(), "sibling's native leaked");
            for (kind, n) in &stream[cut..] {
                for e in [&mut original, &mut copy] {
                    e.assert_fact(event(e, kind, *n)).unwrap();
                    e.run(None).unwrap();
                }
            }
            assert_eq!(copy.firings(), original.firings(), "firings at cut {cut}");
            assert_eq!(copy.match_stats(), original.match_stats(), "match stats at cut {cut}");
            assert_eq!(copy.approx_bytes(), original.approx_bytes(), "bytes at cut {cut}");
            assert_eq!(copy.snapshot().unwrap(), original.snapshot().unwrap(), "cut {cut}");
            assert_eq!(copy.take_output(), original.take_output(), "output at cut {cut}");
        }
    }

    #[test]
    fn snapshot_requires_quiescence() {
        let mut e = snapshot_policy();
        e.assert_fact(event(&e, "bad", 1)).unwrap();
        assert!(e.snapshot().is_err(), "pending activation must block snapshot");
        e.run(None).unwrap();
        assert!(e.snapshot().is_ok());
    }

    #[test]
    fn restore_rejects_foreign_policy_without_touching_state() {
        let mut donor = snapshot_policy();
        donor.assert_fact(event(&donor, "bad", 1)).unwrap();
        donor.run(None).unwrap();
        let snap = donor.snapshot().unwrap();
        let mut other = engine_with_event(); // no alarm template, no rules
        other.assert_fact(event(&other, "open", 9)).unwrap();
        let before = other.fact_count();
        assert!(other.restore(&snap).is_err());
        assert_eq!(other.fact_count(), before, "failed validation must not wipe");
    }
}
