//! The scenario framework: every paper benchmark is a [`Scenario`] —
//! a program (plus environment setup) with an expected classification.

use harrier::SecpertEvent;
use hth_core::{RunReport, Session, SessionConfig, SessionError, Severity, Warning};

/// Which evaluation table/section a scenario belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Group {
    /// Table 4 — execution-flow micro-benchmarks.
    ExecFlow,
    /// Table 5 — resource-abuse micro-benchmarks.
    ResourceAbuse,
    /// Table 6 — information-flow micro-benchmarks.
    InfoFlow,
    /// Table 7 — trusted programs (false-positive study).
    Trusted,
    /// Table 8 — real exploits.
    Exploit,
    /// §8.4 — macro benchmarks.
    Macro,
    /// §10 — future-work extensions implemented by this reproduction.
    Extension,
}

impl Group {
    /// Human-readable table reference.
    pub fn table(&self) -> &'static str {
        match self {
            Group::ExecFlow => "Table 4",
            Group::ResourceAbuse => "Table 5",
            Group::InfoFlow => "Table 6",
            Group::Trusted => "Table 7",
            Group::Exploit => "Table 8",
            Group::Macro => "Section 8.4",
            Group::Extension => "Section 10 (extensions)",
        }
    }
}

/// Expected classification of a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// No warnings at all (correctly classified as benign).
    Silent,
    /// Maximum severity equals this level.
    Warn(Severity),
    /// Maximum severity is at least this level.
    WarnAtLeast(Severity),
    /// Specific rules must all fire (and at least the given severity).
    Rules(Severity, &'static [&'static str]),
}

/// What to run after setup.
#[derive(Clone, Debug)]
pub struct StartSpec {
    /// Registered binary path.
    pub path: &'static str,
    /// Command line (argv\[0\] first).
    pub argv: Vec<String>,
    /// Environment variables.
    pub env: Vec<(String, String)>,
}

impl StartSpec {
    /// A start spec with only argv\[0\].
    pub fn plain(path: &'static str) -> StartSpec {
        StartSpec { path, argv: vec![path.to_string()], env: Vec::new() }
    }

    /// Appends an argument.
    #[must_use]
    pub fn arg(mut self, arg: impl Into<String>) -> StartSpec {
        self.argv.push(arg.into());
        self
    }

    /// Appends an environment variable.
    #[must_use]
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> StartSpec {
        self.env.push((key.into(), value.into()));
        self
    }
}

/// A reproducible benchmark scenario.
pub struct Scenario {
    /// Short identifier (paper row name).
    pub id: &'static str,
    /// Which table it reproduces.
    pub group: Group,
    /// What the scenario models.
    pub description: &'static str,
    /// What the paper reports for this row.
    pub paper_note: &'static str,
    /// Expected classification in this reproduction.
    pub expected: Expectation,
    /// Registers binaries/files/peers/stdin and says what to start.
    pub setup: Box<dyn Fn(&mut Session) -> StartSpec + Send + Sync>,
}

/// Outcome of running one scenario.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Scenario id.
    pub id: &'static str,
    /// Warnings issued.
    pub warnings: Vec<Warning>,
    /// Execution report.
    pub report: RunReport,
    /// Paper-style warning transcript.
    pub transcript: String,
    /// Number of Harrier events processed.
    pub events: usize,
    /// The expectation the result is judged against.
    pub expected: Expectation,
}

impl ScenarioResult {
    /// Highest severity seen.
    pub fn max_severity(&self) -> Option<Severity> {
        self.warnings.iter().map(|w| w.severity).max()
    }

    /// Names of the rules that fired (deduplicated, ordered).
    pub fn rules_fired(&self) -> Vec<&str> {
        let mut rules: Vec<&str> = self.warnings.iter().map(|w| w.rule.as_str()).collect();
        rules.sort_unstable();
        rules.dedup();
        rules
    }

    /// True when the outcome matches the expectation.
    pub fn correct(&self) -> bool {
        match &self.expected {
            Expectation::Silent => self.warnings.is_empty(),
            Expectation::Warn(sev) => self.max_severity() == Some(*sev),
            Expectation::WarnAtLeast(sev) => self.max_severity() >= Some(*sev),
            Expectation::Rules(sev, rules) => {
                self.max_severity() >= Some(*sev)
                    && rules.iter().all(|r| self.warnings.iter().any(|w| w.rule == *r))
            }
        }
    }
}

impl Scenario {
    /// Runs the scenario under the default session configuration.
    ///
    /// # Errors
    ///
    /// Propagates session errors (policy bugs, unknown binaries) —
    /// workload faults are part of the result, not errors.
    pub fn run(&self) -> Result<ScenarioResult, SessionError> {
        self.run_with(SessionConfig::default())
    }

    /// Runs the scenario with inline analysis off and returns the
    /// Harrier event stream its session emitted, in order: the stream
    /// an analyst pool or the serve daemon receives for this program.
    ///
    /// # Errors
    ///
    /// Propagates session errors.
    pub fn record(&self) -> Result<Vec<SecpertEvent>, SessionError> {
        let config = SessionConfig { analyze_inline: false, ..SessionConfig::default() };
        let mut session = Session::new(config)?;
        let start = (self.setup)(&mut session);
        let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
        let env: Vec<(&str, &str)> =
            start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        session.start(start.path, &argv, &env)?;
        session.run()?;
        Ok(session.events().to_vec())
    }

    /// Runs the scenario under a custom configuration.
    ///
    /// # Errors
    ///
    /// Propagates session errors.
    pub fn run_with(&self, config: SessionConfig) -> Result<ScenarioResult, SessionError> {
        let mut session = Session::new(config)?;
        let start = (self.setup)(&mut session);
        let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
        let env: Vec<(&str, &str)> =
            start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        session.start(start.path, &argv, &env)?;
        let report = session.run()?;
        let events = session.events().len();
        let warnings = session.warnings().to_vec();
        let transcript = session.take_transcript();
        Ok(ScenarioResult {
            id: self.id,
            warnings,
            report,
            transcript,
            events,
            expected: self.expected.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_judging() {
        let base = ScenarioResult {
            id: "x",
            warnings: vec![Warning {
                severity: Severity::Low,
                rule: "check_execve".into(),
                pid: 1,
                time: 0,
                message: String::new(),
                provenance: None,
            }],
            report: RunReport::default(),
            transcript: String::new(),
            events: 1,
            expected: Expectation::Warn(Severity::Low),
        };
        assert!(base.correct());
        let silent_expected =
            ScenarioResult { expected: Expectation::Silent, warnings: vec![], ..base };
        assert!(silent_expected.correct());
    }
}
