//! Warning provenance: the causal story behind each warning.
//!
//! The paper's central claim for using an expert system (§6.2.1) is
//! explainability — Secpert "can give the user all of the information
//! that was used to reach its conclusion". This module makes that
//! information a first-class artifact: every [`Warning`](crate::Warning)
//! carries an optional [`Provenance`] recording the triggering event,
//! the rule-firing chain that led to the `warn`, the supporting facts
//! (with the *other* rules whose live matches were consuming them,
//! straight from the match network's fact → token back-references), and
//! the taint-source set of the data involved.
//!
//! [`Provenance::render_tree`] prints it as a causal tree, which the
//! CLI surfaces as `hth explain <journal> <warning-idx>`.

use std::fmt::Write as _;
use std::sync::Arc;

use secpert_engine::{Engine, FiringRecord};

use crate::warning::Warning;

/// One fact that supported the warning's activation, snapshotted at
/// fire time (the RHS may have retracted it since).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FactSupport {
    /// Raw working-memory id (rendered `f-<id>`).
    pub id: u64,
    /// Rendered fact, as it looked when the rule fired.
    pub fact: String,
    /// Other rules whose live (partial or complete) matches were also
    /// consuming this fact at fire time. Empty under the naive matcher,
    /// which keeps no match memory.
    pub co_rules: Vec<String>,
}

/// Everything Secpert knew when it issued one warning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// 1-based index of the triggering event in the expert's event
    /// stream — on a journal replay, the journal frame number.
    pub event_index: u64,
    /// Syscall of the triggering event.
    pub syscall: String,
    /// Engine-lifetime sequence number of the firing whose RHS called
    /// `warn`.
    pub firing_seq: u64,
    /// Rules fired while processing the event, in firing order, up to
    /// and including the warning's own rule.
    pub rule_chain: Vec<String>,
    /// The facts matched by the warning rule's positive patterns.
    pub support: Vec<FactSupport>,
    /// Taint-source set of the event's data/resource origins, rendered
    /// `KIND(name)`.
    pub taint_sources: Vec<String>,
}

impl Provenance {
    /// Renders the causal tree for `warning` (which normally owns this
    /// provenance). Output shape:
    ///
    /// ```text
    /// [HIGH] check_backdoor_server (pid 1, t=10): …message…
    /// └─ firing #12 on event #7 (SYS_write)
    ///    ├─ taint sources: BINARY(pmad), SOCKET(gateway:36982 (AF_INET))
    ///    ├─ rule chain: flow_binary_to_file -> check_backdoor_server
    ///    ├─ f-42 (data_transfer (pid 1) …)
    ///    │  └─ also matching: flow_file_to_socket
    ///    └─ f-43 (taint …)
    /// ```
    pub fn render_tree(&self, warning: &Warning) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[{}] {} (pid {}, t={}): {}",
            warning.severity, warning.rule, warning.pid, warning.time, warning.message
        );
        let _ = writeln!(
            out,
            "└─ firing #{} on event #{} ({})",
            self.firing_seq, self.event_index, self.syscall
        );
        let mut branches: Vec<(String, Vec<String>)> = Vec::new();
        if !self.taint_sources.is_empty() {
            branches
                .push((format!("taint sources: {}", self.taint_sources.join(", ")), Vec::new()));
        }
        if !self.rule_chain.is_empty() {
            branches.push((format!("rule chain: {}", self.rule_chain.join(" -> ")), Vec::new()));
        }
        for fact in &self.support {
            let children = if fact.co_rules.is_empty() {
                Vec::new()
            } else {
                vec![format!("also matching: {}", fact.co_rules.join(", "))]
            };
            branches.push((format!("f-{} {}", fact.id, fact.fact), children));
        }
        for (i, (line, children)) in branches.iter().enumerate() {
            let last = i + 1 == branches.len();
            let (tee, bar) = if last { ("└─", "   ") } else { ("├─", "│  ") };
            let _ = writeln!(out, "   {tee} {line}");
            for (j, child) in children.iter().enumerate() {
                let ctee = if j + 1 == children.len() { "└─" } else { "├─" };
                let _ = writeln!(out, "   {bar}{ctee} {child}");
            }
        }
        out
    }
}

/// Pairs each of `warnings` with the firing in `firings` that issued it
/// and swaps in a copy carrying its [`Provenance`]. Matching is by rule
/// name, in order — policy rules call `warn` exactly once per firing.
/// The shared part (firing, rule chain up to it, fire-time support) is
/// filled here; `fill` adds the caller's own fields: the triggering
/// event and taint sources, plus any support of its own.
pub(crate) fn attach(
    engine: &Engine,
    firings: &[FiringRecord],
    warnings: &mut [Arc<Warning>],
    mut fill: impl FnMut(&FiringRecord, &mut Provenance),
) {
    let mut cursor = 0usize;
    for slot in warnings {
        let Some(offset) = firings[cursor..].iter().position(|f| *f.rule == *slot.rule) else {
            continue;
        };
        let at = cursor + offset;
        cursor = at + 1;
        let firing = &firings[at];
        // Fire-time support from the match network when available
        // (Rete matcher); otherwise just the matched-fact snapshots.
        let fact = |i: usize| firing.facts.get(i).map(|f| f.to_string()).unwrap_or_default();
        let support: Vec<FactSupport> = match engine.support_for(firing.seq) {
            Some(records) => records
                .iter()
                .enumerate()
                .map(|(i, r)| FactSupport {
                    id: r.fact,
                    fact: fact(i),
                    co_rules: r.co_rules.iter().map(|n| n.to_string()).collect(),
                })
                .collect(),
            None => firing
                .fact_ids
                .iter()
                .flatten()
                .enumerate()
                .map(|(i, id)| FactSupport { id: id.raw(), fact: fact(i), co_rules: Vec::new() })
                .collect(),
        };
        let mut provenance = Provenance {
            event_index: 0,
            syscall: String::new(),
            firing_seq: firing.seq as u64,
            rule_chain: firings[..=at].iter().map(|f| f.rule.to_string()).collect(),
            support,
            taint_sources: Vec::new(),
        };
        fill(firing, &mut provenance);
        let mut enriched = (**slot).clone();
        enriched.provenance = Some(Box::new(provenance));
        *slot = Arc::new(enriched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warning::Severity;

    #[test]
    fn tree_renders_all_branches() {
        let warning = Warning {
            severity: Severity::High,
            rule: "check_backdoor_server".into(),
            pid: 1,
            time: 10,
            message: "backdoor".into(),
            provenance: None,
        };
        let prov = Provenance {
            event_index: 7,
            syscall: "SYS_write".into(),
            firing_seq: 12,
            rule_chain: vec!["flow_binary_to_file".into(), "check_backdoor_server".into()],
            support: vec![
                FactSupport {
                    id: 42,
                    fact: "(data_transfer (pid 1))".into(),
                    co_rules: vec!["flow_file_to_socket".into()],
                },
                FactSupport { id: 43, fact: "(taint)".into(), co_rules: Vec::new() },
            ],
            taint_sources: vec!["BINARY(pmad)".into()],
        };
        let tree = prov.render_tree(&warning);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines[0], "[HIGH] check_backdoor_server (pid 1, t=10): backdoor");
        assert_eq!(lines[1], "└─ firing #12 on event #7 (SYS_write)");
        assert_eq!(lines[2], "   ├─ taint sources: BINARY(pmad)");
        assert_eq!(lines[3], "   ├─ rule chain: flow_binary_to_file -> check_backdoor_server");
        assert_eq!(lines[4], "   ├─ f-42 (data_transfer (pid 1))");
        assert_eq!(lines[5], "   │  └─ also matching: flow_file_to_socket");
        assert_eq!(lines[6], "   └─ f-43 (taint)");
        assert_eq!(lines.len(), 7);
    }

    #[test]
    fn empty_branches_are_omitted() {
        let warning = Warning {
            severity: Severity::Low,
            rule: "r".into(),
            pid: 2,
            time: 3,
            message: "m".into(),
            provenance: None,
        };
        let prov = Provenance {
            event_index: 1,
            syscall: "SYS_open".into(),
            firing_seq: 1,
            rule_chain: vec!["r".into()],
            support: Vec::new(),
            taint_sources: Vec::new(),
        };
        let tree = prov.render_tree(&warning);
        assert!(tree.contains("└─ rule chain: r"), "{tree}");
        assert!(!tree.contains("taint sources"), "{tree}");
    }
}
