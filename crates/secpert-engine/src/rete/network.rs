//! The incremental match network: token tree, beta memories and the
//! assert/retract propagation that keeps rule activations up to date.
//!
//! # Topology
//!
//! Each rule compiles to a linear chain of nodes, one per condition
//! element. Level `0` holds the rule's root token (empty tuple, empty
//! bindings); level `i + 1` holds the tokens that have consumed
//! condition elements `0..=i`. A token at the last level is a *complete
//! match* and corresponds to one (potential) agenda activation.
//!
//! Facts arriving at a pattern node join against the tokens of the
//! parent memory — narrowed by the shared-variable beta index and the
//! constant-slot alpha index when the compile step found one — and
//! spawn child tokens that cascade down the chain. Retraction deletes
//! the token subtrees hanging off the retracted fact: O(tokens touched).
//!
//! # Negation
//!
//! A token whose next node is a `not` CE carries a *blocker set*: the
//! facts currently matching the negated pattern under the token's
//! bindings. The negated branch of the chain exists exactly while the
//! set is empty; asserts and retracts adjust the set (support counting)
//! instead of recomputing the rule.
//!
//! # Agenda-order emulation
//!
//! The network reproduces the naive matcher's activation sequencing
//! byte-for-byte (see `tests/match_diff.rs`):
//!
//! - new matches from an assert are emitted seed-position-major, then
//!   in ascending fact-tuple order — the naive seed-join's DFS order;
//! - rules with a `not` CE on the changed template are *resequenced*:
//!   every surviving complete match is re-pushed with a fresh sequence
//!   number in full-tuple order, mirroring the naive full recompute
//!   (O(complete tokens), not O(full join)).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::engine::ActKey;
use crate::error::Result;
use crate::expr::{eval, Bindings, Host};
use crate::fact::{Fact, FactId, WorkingMemory};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::pattern::{match_resolved_slots, CondElem, PatternCE};
use crate::rule::Rule;
use crate::template::Template;
use crate::value::Value;

use super::compile::{compile, Node};
use super::stats::MatchStats;

/// A fact tuple: one entry per condition element consumed so far
/// (`None` for `not`/`test` positions). Doubles as the activation key.
type Tuple = Vec<Option<FactId>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct TokenId(u64);

#[derive(Clone, Debug)]
struct Token {
    prod: usize,
    /// Memory level the token occupies: 0 is the root, `i + 1` means
    /// condition elements `0..=i` are consumed.
    level: usize,
    parent: Option<TokenId>,
    children: Vec<TokenId>,
    /// Fact consumed at this level (`None` for root/`not`/`test` levels).
    fact: Option<FactId>,
    tuple: Tuple,
    bindings: Bindings,
    /// Facts currently matching the `not` CE that follows this level
    /// (empty unless the next node is a negation).
    blockers: BTreeSet<FactId>,
}

/// One beta memory: the tokens at one level of one production.
#[derive(Clone, Debug, Default)]
struct Memory {
    /// Token identity by tuple; also the duplicate-path guard (a fact
    /// reaching the same tuple via two seed positions lands once).
    by_tuple: FxHashMap<Tuple, TokenId>,
    /// Tokens keyed by the consuming node's join-variable value.
    index: FxHashMap<Value, FxHashSet<TokenId>>,
    /// Tokens whose join variable was unexpectedly unbound; always
    /// consulted so a conservative compile can never lose matches.
    unindexed: FxHashSet<TokenId>,
}

/// The compiled half of a production, fixed once the rule is added:
/// networks cloned from one another share it instead of copying it.
#[derive(Debug)]
struct CompiledProduction {
    rule: Arc<Rule>,
    nodes: Vec<Node>,
    /// Single positive pattern at position 0 followed only by `test`
    /// CEs: matches of such a rule touch exactly one fact, so the
    /// network skips the token tree entirely (see [`FastEntry`]).
    fast: bool,
}

#[derive(Clone)]
struct Production {
    compiled: Arc<CompiledProduction>,
    root: TokenId,
    /// `lhs.len() + 1` memories; the last holds complete matches.
    memories: Vec<Memory>,
}

/// Fast-path match record: one production's live (partial or complete)
/// match on one fact. Replaces the token chain for `fast` productions —
/// a single-pattern rule's whole match state is the fact id plus how far
/// down the test suffix it got.
#[derive(Clone, Copy, Debug)]
struct FastEntry {
    prod: usize,
    /// Tokens the chain would have held (1 for the pattern + 1 per
    /// passed test), kept so [`MatchStats`] token counters stay
    /// byte-identical with the token path.
    virtual_tokens: u64,
    /// Whether the whole test suffix passed (an agenda activation).
    complete: bool,
}

/// A complete match handed to the agenda.
pub(crate) struct Emission {
    /// Rule index.
    pub rule: usize,
    /// Fact tuple (the activation/refraction key body).
    pub tuple: Tuple,
    /// Variable bindings for RHS evaluation.
    pub bindings: Bindings,
}

/// Agenda edits produced by one assert or retract, in application order:
/// removals, then ordered pushes, then negated-rule resequences.
#[derive(Default)]
pub(crate) struct UpdateOutcome {
    /// Activations whose tokens were deleted.
    pub removals: Vec<ActKey>,
    /// New matches in exact naive-equivalent push order.
    pub pushes: Vec<Emission>,
    /// Rules to resequence: remove all their activations, then push the
    /// given matches (already in full-tuple order) with fresh seqs.
    pub resequences: Vec<(usize, Vec<Emission>)>,
}

/// The incremental Rete-style match network. A clone shares every
/// production's compiled half and copies the match state.
#[derive(Clone, Default)]
pub(crate) struct ReteNetwork {
    prods: Vec<Production>,
    tokens: FxHashMap<TokenId, Token>,
    /// Fact -> tokens that consumed it at a positive position.
    fact_tokens: FxHashMap<FactId, Vec<TokenId>>,
    /// Fact -> fast-path matches (one per `fast` production whose
    /// pattern matched the fact).
    fact_fast: FxHashMap<FactId, Vec<FastEntry>>,
    /// Reusable bindings buffer for fast-path match attempts; most
    /// attempts fail, so the allocation survives across them.
    fast_scratch: Bindings,
    /// Reusable site buffers for `on_assert` (the per-event clones of
    /// the dispatch-table entries).
    scratch_pos: Vec<(usize, usize)>,
    scratch_neg: Vec<usize>,
    /// Fact -> tokens whose blocker set contains it.
    fact_blocks: FxHashMap<FactId, FxHashSet<TokenId>>,
    /// Template -> positive pattern sites `(prod, pos)`, ascending, so
    /// an assert dispatches straight to the productions that can care
    /// instead of scanning every rule's left-hand side.
    pos_sites: HashMap<Arc<str>, Vec<(usize, usize)>>,
    /// Template -> productions with a `not` CE on it, ascending.
    neg_sites: HashMap<Arc<str>, Vec<usize>>,
    next_token: u64,
    pub(crate) stats: MatchStats,
}

impl ReteNetwork {
    pub(crate) fn new() -> ReteNetwork {
        ReteNetwork::default()
    }

    /// Approximate resident bytes of the token tree, beta memories, and
    /// per-fact dispatch maps — the match network's growth surface for
    /// session memory budgeting. Compiled productions are excluded: their
    /// size is a function of the (shared, fixed) rule base, not of the
    /// event stream.
    pub(crate) fn approx_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for token in self.tokens.values() {
            bytes += std::mem::size_of::<Token>()
                + token.children.len() * std::mem::size_of::<TokenId>()
                + token.tuple.len() * std::mem::size_of::<Option<FactId>>()
                + token.blockers.len() * 24
                + token
                    .bindings
                    .iter()
                    .map(|(name, value)| name.len() + crate::fact::value_approx_bytes(value))
                    .sum::<usize>();
        }
        for prod in &self.prods {
            for memory in &prod.memories {
                bytes += memory.by_tuple.len() * 48;
                for (value, ids) in &memory.index {
                    bytes += crate::fact::value_approx_bytes(value) + 32 + ids.len() * 8;
                }
                bytes += memory.unindexed.len() * 8;
            }
        }
        bytes += self.fact_tokens.values().map(|v| 32 + v.len() * 8).sum::<usize>();
        bytes += self.fact_fast.values().map(|v| 32 + v.len() * 24).sum::<usize>();
        bytes += self.fact_blocks.values().map(|s| 32 + s.len() * 8).sum::<usize>();
        bytes
    }

    fn new_token_id(&mut self) -> TokenId {
        self.next_token += 1;
        TokenId(self.next_token)
    }

    fn make_root(&mut self, prod: usize) -> TokenId {
        let id = self.new_token_id();
        self.tokens.insert(
            id,
            Token {
                prod,
                level: 0,
                parent: None,
                children: Vec::new(),
                fact: None,
                tuple: Vec::new(),
                bindings: Bindings::new(),
                blockers: BTreeSet::new(),
            },
        );
        self.prods[prod].memories[0].by_tuple.insert(Vec::new(), id);
        id
    }

    /// Compiles `rule` into the network and joins it against the current
    /// working memory. Returns the rule's complete matches in full-tuple
    /// order, ready to push (the naive `recompute_rule` order).
    pub(crate) fn add_production(
        &mut self,
        rule: Arc<Rule>,
        templates: &FxHashMap<Arc<str>, Arc<Template>>,
        wm: &WorkingMemory,
        host: &mut dyn Host,
    ) -> Result<Vec<Emission>> {
        let prod = self.prods.len();
        let nodes = compile(&rule, templates);
        for (pos, p) in rule.positive_positions() {
            self.pos_sites.entry(p.template.clone()).or_default().push((prod, pos));
        }
        for (_, p) in rule.negative_positions() {
            let sites = self.neg_sites.entry(p.template.clone()).or_default();
            if sites.last() != Some(&prod) {
                sites.push(prod);
            }
        }
        let levels = rule.lhs().len() + 1;
        let fast = matches!(rule.lhs().first(), Some(CondElem::Pattern(_)))
            && rule.lhs()[1..].iter().all(|ce| matches!(ce, CondElem::Test(_)));
        self.prods.push(Production {
            compiled: Arc::new(CompiledProduction { rule, nodes, fast }),
            root: TokenId(0),
            memories: (0..levels).map(|_| Memory::default()).collect(),
        });
        if fast {
            return self.fast_join_wm(prod, wm, host);
        }
        let root = self.make_root(prod);
        self.prods[prod].root = root;
        let mut complete = Vec::new();
        self.extend_token(prod, root, wm, host, &mut complete)?;
        Ok(self.emissions_sorted(prod, complete))
    }

    /// Joins a freshly added fast-path production against the current
    /// working memory: the level-0 leg of `extend_token` without the
    /// token tree. Candidate narrowing and stats mirror `candidates`.
    fn fast_join_wm(
        &mut self,
        pi: usize,
        wm: &WorkingMemory,
        host: &mut dyn Host,
    ) -> Result<Vec<Emission>> {
        let compiled = Arc::clone(&self.prods[pi].compiled);
        let CondElem::Pattern(p) = &compiled.rule.lhs()[0] else { unreachable!("fast production") };
        let ids: Vec<FactId> = if let Some((slot, value)) = compiled.nodes[0].consts.first() {
            let (slot, value) = (*slot, value.clone());
            self.stats.index_lookups += 1;
            match wm.ids_with(&p.template, slot, &value) {
                Some(ids) => {
                    self.stats.index_hits += 1;
                    ids.iter().copied().collect()
                }
                None => Vec::new(),
            }
        } else {
            wm.ids_of(&p.template).to_vec()
        };
        let mut complete = Vec::new();
        for cid in ids {
            let Some(fact) = wm.get(cid).cloned() else { continue };
            if !self.const_check(pi, 0, &fact) {
                continue;
            }
            if let Some(emission) = self.fast_match(pi, cid, &fact, host)? {
                complete.push(emission);
            }
        }
        complete.sort_by(|a, b| a.tuple.cmp(&b.tuple));
        Ok(complete)
    }

    /// One fast-path match attempt: pattern, fact binding, then the test
    /// suffix, all against fresh bindings (the root token's). Registers
    /// the partial/complete match in `fact_fast` and returns the agenda
    /// emission when every test passed. Stats counters move exactly as
    /// the token path would have moved them.
    fn fast_match(
        &mut self,
        pi: usize,
        id: FactId,
        fact: &Fact,
        host: &mut dyn Host,
    ) -> Result<Option<Emission>> {
        let rule = self.prods[pi].compiled.rule.clone();
        let CondElem::Pattern(p) = &rule.lhs()[0] else { unreachable!("fast production") };
        self.stats.join_attempts += 1;
        let mut bindings = std::mem::take(&mut self.fast_scratch);
        bindings.clear();
        // The dispatch tables guarantee the template matches and
        // `const_check` has verified the constant slots; the residual
        // walk covers the rest (unless compilation could not resolve
        // the slots — then the full matcher reports the error).
        let matched = match &self.prods[pi].compiled.nodes[0].residual {
            Some(residual) => match_resolved_slots(residual, fact, &mut bindings, host)?,
            None => p.matches(fact, &mut bindings, host)?,
        };
        if !matched {
            self.fast_scratch = bindings;
            return Ok(None);
        }
        if let Some(var) = &p.binding {
            // `?f <-` rebinding to a different fact must fail.
            match bindings.get(var.as_ref()) {
                Some(existing) if *existing != Value::Fact(id) => {
                    self.fast_scratch = bindings;
                    return Ok(None);
                }
                _ => {
                    bindings.insert(var.clone(), Value::Fact(id));
                }
            }
        }
        self.stats.join_matches += 1;
        let mut virtual_tokens = 1u64;
        let mut complete = true;
        for ce in &rule.lhs()[1..] {
            let CondElem::Test(expr) = ce else { unreachable!("fast production") };
            // `bind` side effects inside a test persist downstream,
            // exactly as in the token chain.
            if eval(expr, &mut bindings, host)?.is_truthy() {
                virtual_tokens += 1;
            } else {
                complete = false;
                break;
            }
        }
        self.stats.tokens_created += virtual_tokens;
        self.stats.tokens_live += virtual_tokens;
        self.fact_fast.entry(id).or_default().push(FastEntry {
            prod: pi,
            virtual_tokens,
            complete,
        });
        if !complete {
            self.fast_scratch = bindings;
            return Ok(None);
        }
        let mut tuple = Vec::with_capacity(rule.lhs().len());
        tuple.push(Some(id));
        tuple.resize(rule.lhs().len(), None);
        Ok(Some(Emission { rule: pi, tuple, bindings }))
    }

    /// Drops every token (working memory was cleared) and re-roots each
    /// production, re-evaluating `not`/`test` prefixes against the now
    /// empty memory.
    pub(crate) fn reset(&mut self, wm: &WorkingMemory, host: &mut dyn Host) -> Result<()> {
        self.stats.tokens_removed += self.stats.tokens_live;
        self.stats.tokens_live = 0;
        self.tokens.clear();
        self.fact_tokens.clear();
        self.fact_fast.clear();
        self.fact_blocks.clear();
        for prod in &mut self.prods {
            for memory in &mut prod.memories {
                *memory = Memory::default();
            }
        }
        for prod in 0..self.prods.len() {
            if self.prods[prod].compiled.fast {
                // Fast productions keep no root token; an empty working
                // memory means they simply have no matches to rebuild.
                continue;
            }
            let root = self.make_root(prod);
            self.prods[prod].root = root;
            let mut scratch = Vec::new();
            self.extend_token(prod, root, wm, host, &mut scratch)?;
            // Every rule has at least one positive pattern (the engine
            // injects `initial-fact` otherwise), so nothing completes
            // against an empty working memory.
            debug_assert!(scratch.is_empty());
        }
        Ok(())
    }

    /// Productions whose live tokens (partial or complete matches)
    /// currently consume fact `id`, via the `fact_tokens`
    /// back-references. Deduplicated, in ascending production order.
    pub(crate) fn rules_using(&self, id: FactId) -> Vec<usize> {
        let mut prods: Vec<usize> = self
            .fact_tokens
            .get(&id)
            .into_iter()
            .flatten()
            .filter_map(|token| self.tokens.get(token).map(|t| t.prod))
            .collect();
        prods.extend(self.fact_fast.get(&id).into_iter().flatten().map(|entry| entry.prod));
        prods.sort_unstable();
        prods.dedup();
        prods
    }

    // ----- assert propagation -------------------------------------------

    pub(crate) fn on_assert(
        &mut self,
        id: FactId,
        wm: &WorkingMemory,
        host: &mut dyn Host,
    ) -> Result<UpdateOutcome> {
        let fact = wm.get(id).expect("asserted fact is live").clone();
        let template = fact.template().name();
        let mut outcome = UpdateOutcome::default();
        let mut resequence: Vec<usize> = Vec::new();
        // Only productions with a pattern site on this template can
        // react; walk the two (ascending) site lists merged so the
        // per-production work happens in production order, exactly as
        // the old scan over every rule did.
        let mut pos_buf = std::mem::take(&mut self.scratch_pos);
        let mut neg_buf = std::mem::take(&mut self.scratch_neg);
        pos_buf.clear();
        neg_buf.clear();
        pos_buf.extend_from_slice(self.pos_sites.get(template).map_or(&[][..], Vec::as_slice));
        neg_buf.extend_from_slice(self.neg_sites.get(template).map_or(&[][..], Vec::as_slice));
        let mut pos_sites = pos_buf.as_slice();
        let mut neg_prods = neg_buf.as_slice();
        while !pos_sites.is_empty() || !neg_prods.is_empty() {
            let pi = match (pos_sites.first(), neg_prods.first()) {
                (Some((p, _)), Some(n)) => (*p).min(*n),
                (Some((p, _)), None) => *p,
                (None, Some(n)) => *n,
                (None, None) => unreachable!("loop condition"),
            };
            let negated = neg_prods.first() == Some(&pi);
            if negated {
                neg_prods = &neg_prods[1..];
                // Update blocker sets of existing tokens *before* any
                // positive propagation: tokens created below compute
                // their blockers from a working memory that already
                // contains the fact, so doing supports first counts the
                // fact exactly once either way.
                let rule = self.prods[pi].compiled.rule.clone();
                self.update_supports_on_assert(
                    pi,
                    &rule,
                    id,
                    &fact,
                    template,
                    host,
                    &mut outcome.removals,
                )?;
            }
            let mut emitted: Vec<(usize, TokenId)> = Vec::new();
            if self.prods[pi].compiled.fast {
                // Single positive pattern at position 0: one site, one
                // possible emission, no token tree to grow.
                while let Some((p, _)) = pos_sites.first().copied() {
                    if p != pi {
                        break;
                    }
                    pos_sites = &pos_sites[1..];
                    if !self.const_check(pi, 0, &fact) {
                        continue;
                    }
                    if let Some(emission) = self.fast_match(pi, id, &fact, host)? {
                        outcome.pushes.push(emission);
                    }
                }
                continue;
            }
            while let Some((p, pos)) = pos_sites.first().copied() {
                if p != pi {
                    break;
                }
                pos_sites = &pos_sites[1..];
                if !self.const_check(pi, pos, &fact) {
                    continue;
                }
                let parents = self.right_parents(pi, pos, &fact);
                let mut complete = Vec::new();
                for parent in parents {
                    if !self.tokens.contains_key(&parent) {
                        continue;
                    }
                    self.try_extend(pi, pos, parent, id, &fact, wm, host, &mut complete)?;
                }
                emitted.extend(complete.into_iter().map(|t| (pos, t)));
            }
            if negated {
                // New matches surface through the resequence below, as
                // the naive full recompute would.
                resequence.push(pi);
            } else if !emitted.is_empty() {
                // Seed-position-major, then ascending fact tuple: the
                // naive seed-join DFS emission order.
                emitted.sort_by(|a, b| {
                    a.0.cmp(&b.0)
                        .then_with(|| self.tokens[&a.1].tuple.cmp(&self.tokens[&b.1].tuple))
                });
                for (_, t) in emitted {
                    outcome.pushes.push(self.emission(pi, t));
                }
            }
        }
        self.scratch_pos = pos_buf;
        self.scratch_neg = neg_buf;
        for pi in resequence {
            self.stats.resequences += 1;
            let matches = self.complete_matches(pi);
            outcome.resequences.push((pi, matches));
        }
        self.count_activations(&outcome);
        Ok(outcome)
    }

    /// Scans existing tokens sitting in front of `not` nodes over the
    /// asserted fact's template and grows their blocker sets; a set
    /// going empty-to-blocked deletes the negated branch.
    #[allow(clippy::too_many_arguments)]
    fn update_supports_on_assert(
        &mut self,
        pi: usize,
        rule: &Rule,
        id: FactId,
        fact: &Fact,
        template: &str,
        host: &mut dyn Host,
        removals: &mut Vec<ActKey>,
    ) -> Result<()> {
        let positions: Vec<usize> = rule
            .negative_positions()
            .filter(|(_, p)| p.template.as_ref() == template)
            .map(|(pos, _)| pos)
            .collect();
        for pos in positions {
            if !self.const_check(pi, pos, fact) {
                continue;
            }
            let CondElem::Not(pattern) = &rule.lhs()[pos] else { unreachable!() };
            let parents: Vec<TokenId> =
                self.prods[pi].memories[pos].by_tuple.values().copied().collect();
            for t in parents {
                let Some(token) = self.tokens.get(&t) else { continue };
                let mut scratch = token.bindings.clone();
                self.stats.neg_checks += 1;
                if !pattern.matches(fact, &mut scratch, host)? {
                    continue;
                }
                let token = self.tokens.get_mut(&t).expect("checked above");
                let newly_blocked = token.blockers.is_empty();
                token.blockers.insert(id);
                let child_tuple = if newly_blocked {
                    let mut tuple = token.tuple.clone();
                    tuple.push(None);
                    Some(tuple)
                } else {
                    None
                };
                self.fact_blocks.entry(id).or_default().insert(t);
                if let Some(tuple) = child_tuple {
                    if let Some(child) =
                        self.prods[pi].memories[pos + 1].by_tuple.get(&tuple).copied()
                    {
                        self.delete_subtree(child, removals);
                    }
                }
            }
        }
        Ok(())
    }

    // ----- retract propagation ------------------------------------------

    /// `wm` no longer contains `id` when this runs (the engine retracts
    /// from working memory first), so freshly unblocked negations are
    /// evaluated against the post-retract fact population.
    pub(crate) fn on_retract(
        &mut self,
        id: FactId,
        template: &str,
        wm: &WorkingMemory,
        host: &mut dyn Host,
    ) -> Result<UpdateOutcome> {
        let mut outcome = UpdateOutcome::default();
        // 0. Drop the fast-path matches on the fact; complete ones come
        //    back as targeted agenda removals.
        if let Some(entries) = self.fact_fast.remove(&id) {
            for entry in entries {
                self.stats.tokens_removed += entry.virtual_tokens;
                self.stats.tokens_live -= entry.virtual_tokens;
                if entry.complete {
                    let len = self.prods[entry.prod].compiled.rule.lhs().len();
                    let mut tuple = Vec::with_capacity(len);
                    tuple.push(Some(id));
                    tuple.resize(len, None);
                    outcome.removals.push((entry.prod, tuple));
                }
            }
        }
        // 1. Delete the token subtrees that consumed the fact; their
        //    agenda activations come back as targeted removals.
        if let Some(tokens) = self.fact_tokens.remove(&id) {
            for t in tokens {
                if self.tokens.contains_key(&t) {
                    self.delete_subtree(t, &mut outcome.removals);
                }
            }
        }
        // 2. Shrink blocker sets; a set going empty revives the negated
        //    branch, whose new matches surface via the resequence below.
        if let Some(blocked) = self.fact_blocks.remove(&id) {
            for t in blocked {
                let Some(token) = self.tokens.get_mut(&t) else { continue };
                token.blockers.remove(&id);
                if !token.blockers.is_empty() {
                    continue;
                }
                let (pi, level, bindings) = (token.prod, token.level, token.bindings.clone());
                let mut scratch = Vec::new();
                if let Some(child) = self.create_child(pi, t, level, None, bindings) {
                    self.extend_token(pi, child, wm, host, &mut scratch)?;
                }
            }
        }
        // 3. Resequence rules negating on this template (naive parity:
        //    their full recompute refreshes every surviving seq).
        for pi in self.neg_sites.get(template).cloned().unwrap_or_default() {
            self.stats.resequences += 1;
            let matches = self.complete_matches(pi);
            outcome.resequences.push((pi, matches));
        }
        self.count_activations(&outcome);
        Ok(outcome)
    }

    // ----- token machinery ----------------------------------------------

    /// Extends `token` through its next node against current working
    /// memory, cascading to completion. Newly completed tokens are
    /// appended to `out`.
    fn extend_token(
        &mut self,
        pi: usize,
        token_id: TokenId,
        wm: &WorkingMemory,
        host: &mut dyn Host,
        out: &mut Vec<TokenId>,
    ) -> Result<()> {
        let rule = self.prods[pi].compiled.rule.clone();
        let level = self.tokens[&token_id].level;
        if level == rule.lhs().len() {
            out.push(token_id);
            return Ok(());
        }
        match &rule.lhs()[level] {
            CondElem::Pattern(p) => {
                let candidates = self.candidates(pi, level, p, &token_id, wm);
                for cid in candidates {
                    let Some(fact) = wm.get(cid).cloned() else { continue };
                    if !self.const_check(pi, level, &fact) {
                        continue;
                    }
                    if !self.tokens.contains_key(&token_id) {
                        break;
                    }
                    self.try_extend(pi, level, token_id, cid, &fact, wm, host, out)?;
                }
            }
            CondElem::Not(pattern) => {
                let candidates = self.candidates(pi, level, pattern, &token_id, wm);
                let bindings = self.tokens[&token_id].bindings.clone();
                let mut blockers = BTreeSet::new();
                for cid in candidates {
                    let Some(fact) = wm.get(cid).cloned() else { continue };
                    if !self.const_check(pi, level, &fact) {
                        continue;
                    }
                    self.stats.neg_checks += 1;
                    let mut scratch = bindings.clone();
                    if pattern.matches(&fact, &mut scratch, host)? {
                        blockers.insert(cid);
                    }
                }
                for cid in &blockers {
                    self.fact_blocks.entry(*cid).or_default().insert(token_id);
                }
                let empty = blockers.is_empty();
                self.tokens.get_mut(&token_id).expect("live token").blockers = blockers;
                if empty {
                    if let Some(child) = self.create_child(pi, token_id, level, None, bindings) {
                        self.extend_token(pi, child, wm, host, out)?;
                    }
                }
            }
            CondElem::Test(expr) => {
                let mut scratch = self.tokens[&token_id].bindings.clone();
                if eval(expr, &mut scratch, host)?.is_truthy() {
                    // `bind` side effects inside the test persist
                    // downstream, as in the naive DFS.
                    if let Some(child) = self.create_child(pi, token_id, level, None, scratch) {
                        self.extend_token(pi, child, wm, host, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// One join step: verifies `fact` against the pattern at `level`
    /// under `parent`'s bindings and, on success, spawns the child token
    /// and cascades it.
    #[allow(clippy::too_many_arguments)]
    fn try_extend(
        &mut self,
        pi: usize,
        level: usize,
        parent: TokenId,
        cid: FactId,
        fact: &Fact,
        wm: &WorkingMemory,
        host: &mut dyn Host,
        out: &mut Vec<TokenId>,
    ) -> Result<()> {
        let rule = self.prods[pi].compiled.rule.clone();
        let CondElem::Pattern(p) = &rule.lhs()[level] else { unreachable!() };
        self.stats.join_attempts += 1;
        let mut extended = self.tokens[&parent].bindings.clone();
        if !p.matches(fact, &mut extended, host)? {
            return Ok(());
        }
        if let Some(var) = &p.binding {
            // `?f <-` rebinding to a different fact must fail.
            match extended.get(var.as_ref()) {
                Some(existing) if existing != &Value::Fact(cid) => return Ok(()),
                _ => {
                    extended.insert(var.clone(), Value::Fact(cid));
                }
            }
        }
        self.stats.join_matches += 1;
        if let Some(child) = self.create_child(pi, parent, level, Some(cid), extended) {
            self.extend_token(pi, child, wm, host, out)?;
        }
        Ok(())
    }

    /// Creates the child token of `parent` through the node at `level`.
    /// Returns `None` when a token with the same tuple already exists
    /// (the fact reached this path through an earlier seed position).
    fn create_child(
        &mut self,
        pi: usize,
        parent: TokenId,
        level: usize,
        fact: Option<FactId>,
        bindings: Bindings,
    ) -> Option<TokenId> {
        let mut tuple = self.tokens[&parent].tuple.clone();
        tuple.push(fact);
        if self.prods[pi].memories[level + 1].by_tuple.contains_key(&tuple) {
            return None;
        }
        let id = self.new_token_id();
        let token = Token {
            prod: pi,
            level: level + 1,
            parent: Some(parent),
            children: Vec::new(),
            fact,
            tuple: tuple.clone(),
            bindings,
            blockers: BTreeSet::new(),
        };
        // Index the token in its memory under the consuming node's join
        // variable, when that node has one.
        let join_key = self.prods[pi]
            .compiled
            .nodes
            .get(level + 1)
            .and_then(|n| n.join.as_ref())
            .map(|(_, var)| token.bindings.get(var.as_ref()).cloned());
        let memory = &mut self.prods[pi].memories[level + 1];
        match join_key {
            Some(Some(value)) => {
                memory.index.entry(value).or_default().insert(id);
            }
            Some(None) => {
                // Conservative escape hatch: the compile step believed
                // the variable bound; never lose the token regardless.
                memory.unindexed.insert(id);
            }
            None => {}
        }
        memory.by_tuple.insert(tuple, id);
        if let Some(f) = fact {
            self.fact_tokens.entry(f).or_default().push(id);
        }
        self.tokens.get_mut(&parent).expect("live parent").children.push(id);
        self.tokens.insert(id, token);
        self.stats.tokens_created += 1;
        self.stats.tokens_live += 1;
        Some(id)
    }

    /// Deletes `token` and every descendant, unhooking memories, fact
    /// back-references and blocker back-references, and recording the
    /// agenda keys of deleted complete matches.
    fn delete_subtree(&mut self, token: TokenId, removals: &mut Vec<ActKey>) {
        // Detach the subtree root from its parent; descendants' parents
        // die with the subtree.
        if let Some(parent) = self.tokens[&token].parent {
            if let Some(p) = self.tokens.get_mut(&parent) {
                p.children.retain(|c| *c != token);
            }
        }
        let mut stack = vec![token];
        while let Some(t) = stack.pop() {
            let Some(tok) = self.tokens.remove(&t) else { continue };
            stack.extend(tok.children.iter().copied());
            let last_level = tok.level == self.prods[tok.prod].compiled.nodes.len();
            let join_key = self.prods[tok.prod]
                .compiled
                .nodes
                .get(tok.level)
                .and_then(|n| n.join.as_ref())
                .and_then(|(_, var)| tok.bindings.get(var.as_ref()).cloned());
            let memory = &mut self.prods[tok.prod].memories[tok.level];
            memory.by_tuple.remove(&tok.tuple);
            memory.unindexed.remove(&t);
            if let Some(value) = join_key {
                if let Some(bucket) = memory.index.get_mut(&value) {
                    bucket.remove(&t);
                    if bucket.is_empty() {
                        memory.index.remove(&value);
                    }
                }
            }
            if let Some(f) = tok.fact {
                if let Some(list) = self.fact_tokens.get_mut(&f) {
                    list.retain(|x| *x != t);
                }
            }
            for blocker in &tok.blockers {
                if let Some(set) = self.fact_blocks.get_mut(blocker) {
                    set.remove(&t);
                }
            }
            if last_level {
                removals.push((tok.prod, tok.tuple));
            }
            self.stats.tokens_removed += 1;
            self.stats.tokens_live -= 1;
        }
    }

    // ----- candidate enumeration ----------------------------------------

    /// Facts worth joining against `token` at the pattern of `level`:
    /// the beta-join bucket when the node has a join variable, else the
    /// constant-slot bucket, else the whole template extent.
    fn candidates(
        &mut self,
        pi: usize,
        level: usize,
        pattern: &PatternCE,
        token: &TokenId,
        wm: &WorkingMemory,
    ) -> Vec<FactId> {
        let node = &self.prods[pi].compiled.nodes[level];
        if let Some((slot, var)) = &node.join {
            if let Some(value) = self.tokens[token].bindings.get(var.as_ref()) {
                let (slot, value) = (*slot, value.clone());
                self.stats.index_lookups += 1;
                return match wm.ids_with(&pattern.template, slot, &value) {
                    Some(ids) => {
                        self.stats.index_hits += 1;
                        ids.iter().copied().collect()
                    }
                    None => Vec::new(),
                };
            }
        }
        if let Some((slot, value)) = node.consts.first() {
            let (slot, value) = (*slot, value.clone());
            self.stats.index_lookups += 1;
            return match wm.ids_with(&pattern.template, slot, &value) {
                Some(ids) => {
                    self.stats.index_hits += 1;
                    ids.iter().copied().collect()
                }
                None => Vec::new(),
            };
        }
        wm.ids_of(&pattern.template).to_vec()
    }

    /// Parent tokens worth joining a new fact against at `level`: the
    /// beta-index bucket for the fact's join-slot value (plus the
    /// conservative unindexed set), or the whole memory.
    fn right_parents(&mut self, pi: usize, level: usize, fact: &Fact) -> Vec<TokenId> {
        let memory = &self.prods[pi].memories[level];
        if let Some((slot, _)) = &self.prods[pi].compiled.nodes[level].join {
            let value = &fact.slots()[*slot];
            self.stats.index_lookups += 1;
            let mut parents: Vec<TokenId> = match memory.index.get(value) {
                Some(bucket) => {
                    self.stats.index_hits += 1;
                    bucket.iter().copied().collect()
                }
                None => Vec::new(),
            };
            parents.extend(memory.unindexed.iter().copied());
            parents
        } else {
            memory.by_tuple.values().copied().collect()
        }
    }

    /// Cheap constant-slot gate before a full pattern verification.
    fn const_check(&mut self, pi: usize, level: usize, fact: &Fact) -> bool {
        let node = &self.prods[pi].compiled.nodes[level];
        if node.consts.is_empty() {
            return true;
        }
        self.stats.alpha_tests += 1;
        let pass = node.consts.iter().all(|(slot, value)| &fact.slots()[*slot] == value);
        if pass {
            self.stats.alpha_hits += 1;
        }
        pass
    }

    // ----- emission helpers ---------------------------------------------

    fn emission(&self, pi: usize, token: TokenId) -> Emission {
        let tok = &self.tokens[&token];
        Emission { rule: pi, tuple: tok.tuple.clone(), bindings: tok.bindings.clone() }
    }

    fn emissions_sorted(&self, pi: usize, tokens: Vec<TokenId>) -> Vec<Emission> {
        let mut out: Vec<Emission> = tokens.into_iter().map(|t| self.emission(pi, t)).collect();
        out.sort_by(|a, b| a.tuple.cmp(&b.tuple));
        out
    }

    /// All complete matches of one rule in full-tuple order (the naive
    /// full-recompute DFS emission order).
    fn complete_matches(&self, pi: usize) -> Vec<Emission> {
        let last = self.prods[pi].compiled.nodes.len();
        let tokens: Vec<TokenId> =
            self.prods[pi].memories[last].by_tuple.values().copied().collect();
        self.emissions_sorted(pi, tokens)
    }

    fn count_activations(&mut self, outcome: &UpdateOutcome) {
        self.stats.activations += outcome.pushes.len() as u64;
        self.stats.activations +=
            outcome.resequences.iter().map(|(_, m)| m.len() as u64).sum::<u64>();
    }
}
