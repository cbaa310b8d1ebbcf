//! Structural netlist lints.
//!
//! Elaboration bugs — floating nets, dead logic, alarms that can never
//! fire — historically surfaced only as downstream tally divergences
//! after minutes of fault simulation. These checks push them to
//! elaboration time, before a single vector runs:
//!
//! * unconnected required pins (a `dff()` whose `connect_dff` never
//!   ran, hand-built IR with missing operands) — **error**;
//! * combinational cycles / non-topological reads — **error**;
//! * a constant alarm output (a checker that cannot fire) — **error**;
//! * dangling nets (driven, never read, not an output) — warning;
//! * constant-foldable dead logic — warning in strict mode, **waived
//!   with a reason** by default: datapath elaboration deliberately ties
//!   inactive mux legs to a constant-zero bus and drives mux selects
//!   from per-instance constants (the PR-5 divergence pin), so these
//!   are expected;
//! * gates with no structural path to any alarm output (faults there
//!   can never be *detected*, only silent or escaped) — warning, only
//!   on netlists that declare an `error` output bus. Reachability is
//!   Dff-aware: the alarm cone traverses D-pin edges, so sticky-alarm
//!   registers in sequential datapaths do not hide their cone.

use scdp_netlist::{GateKind, Netlist};
use scdp_obs::write_json_string;

/// How serious a [`Diagnostic`] is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Structural bug; `scdp lint` exits nonzero.
    Error,
    /// Suspicious but not fatal.
    Warning,
    /// Matched a known-benign pattern; kept visible with its reason.
    Waived,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Waived => "waived",
        }
    }
}

/// One finding of [`lint`].
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `dead-logic`).
    pub code: &'static str,
    /// Human-readable description, including the waive reason when
    /// [`Severity::Waived`].
    pub message: String,
    /// Gate (= net) index the finding anchors to, when there is one.
    pub gate: Option<usize>,
}

/// Knobs for [`lint`].
#[derive(Copy, Clone, Debug, Default)]
pub struct LintOptions {
    /// Report constant-foldable dead logic as warnings instead of
    /// waiving the known-benign zero-tied mux-leg pattern.
    pub strict: bool,
}

/// Outcome of linting one netlist.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Design name.
    pub name: String,
    /// Total gate count of the linted netlist.
    pub gates: usize,
    /// All findings, in check order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of waived findings.
    #[must_use]
    pub fn waived(&self) -> usize {
        self.count(Severity::Waived)
    }

    /// `true` when nothing reached error severity.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Human-readable rendering: a one-line summary (always containing
    /// `N errors`) followed by one line per error/warning finding.
    /// Waived findings — routinely in the hundreds on elaborated
    /// datapaths — are aggregated to one line per code, keeping the
    /// waiver reason without drowning the real findings.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "lint {}: {} gates — {} errors, {} warnings, {} waived\n",
            self.name,
            self.gates,
            self.errors(),
            self.warnings(),
            self.waived()
        );
        for d in &self.diagnostics {
            if d.severity == Severity::Waived {
                continue;
            }
            let at = d.gate.map_or(String::new(), |g| format!(" gate {g}"));
            out.push_str(&format!(
                "  {}[{}]{}: {}\n",
                d.severity.label(),
                d.code,
                at,
                d.message
            ));
        }
        let mut seen: Vec<&'static str> = Vec::new();
        for d in &self.diagnostics {
            if d.severity != Severity::Waived || seen.contains(&d.code) {
                continue;
            }
            seen.push(d.code);
            let count = self
                .diagnostics
                .iter()
                .filter(|x| x.severity == Severity::Waived && x.code == d.code)
                .count();
            let reason = d
                .message
                .split_once("(waived:")
                .map_or("", |(_, r)| r.trim_end_matches(')'))
                .trim();
            out.push_str(&format!("  waived[{}] ×{count}: {reason}\n", d.code));
        }
        out
    }

    /// JSON rendering (object with summary counts and a `diagnostics`
    /// array), hand-rolled like the rest of the workspace.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"name\":");
        write_json_string(&mut out, &self.name);
        out.push_str(&format!(
            ",\"gates\":{},\"errors\":{},\"warnings\":{},\"waived\":{},\"diagnostics\":[",
            self.gates,
            self.errors(),
            self.warnings(),
            self.waived()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let gate = d.gate.map_or("null".to_string(), |g| g.to_string());
            out.push_str(&format!(
                "{{\"severity\":\"{}\",\"code\":\"{}\",\"gate\":{},\"message\":",
                d.severity.label(),
                d.code,
                gate,
            ));
            write_json_string(&mut out, &d.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Runs every structural check over `netlist`.
#[must_use]
pub fn lint(netlist: &Netlist, opts: &LintOptions) -> LintReport {
    let gates = netlist.gates();
    let mut diags = Vec::new();

    // 1. Required pins present.
    for (i, g) in gates.iter().enumerate() {
        let needed = g.kind.pins();
        let missing = (needed >= 1 && g.a.is_none()) || (needed >= 2 && g.b.is_none());
        if missing {
            let what = if g.kind == GateKind::Dff {
                "Dff D input never connected (connect_dff missing)".to_string()
            } else {
                format!("{:?} gate is missing an operand", g.kind)
            };
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: "unconnected-pin",
                message: what,
                gate: Some(i),
            });
        }
    }

    // 2. Combinational topology: every non-Dff gate must read
    // already-defined nets (Dff D-pins may legally look forward).
    for (i, g) in gates.iter().enumerate() {
        if g.kind == GateKind::Dff {
            continue;
        }
        for n in [g.a, g.b].into_iter().flatten() {
            if n.index() >= i {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "combinational-cycle",
                    message: format!(
                        "combinational gate reads net {} defined at or after itself",
                        n.index()
                    ),
                    gate: Some(i),
                });
            }
        }
    }

    // 3. Dangling nets: driven, never read, not an output.
    for (i, g) in gates.iter().enumerate() {
        if netlist.readers(i).is_empty() && !netlist.is_output_net(i) {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "dangling-net",
                message: format!(
                    "net driven by {:?} gate is never read and not an output",
                    g.kind
                ),
                gate: Some(i),
            });
        }
    }

    // 4. Constant propagation → dead logic.
    let consts = netlist.constants();
    for (i, g) in gates.iter().enumerate() {
        if matches!(g.kind, GateKind::Input | GateKind::Const(_) | GateKind::Dff) {
            continue;
        }
        if let Some(v) = consts[i] {
            let (severity, reason) = if opts.strict {
                (Severity::Warning, String::new())
            } else {
                (
                    Severity::Waived,
                    " (waived: datapath elaboration ties inactive mux legs to the \
                     constant-zero bus and drives selects from per-instance constants; \
                     known-benign dead logic)"
                        .to_string(),
                )
            };
            diags.push(Diagnostic {
                severity,
                code: "dead-logic",
                message: format!(
                    "{:?} gate output is constant {}{}",
                    g.kind,
                    u8::from(v),
                    reason
                ),
                gate: Some(i),
            });
        }
    }

    // 5+6. Alarm checks, only on netlists that declare an alarm.
    let alarm = netlist.alarm_nets();
    if !alarm.is_empty() {
        // 5. A constant alarm can never fire (or never stop firing).
        for net in alarm {
            if let Some(v) = consts[net.index()] {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "constant-alarm",
                    message: format!("alarm output is constant {}", u8::from(v)),
                    gate: Some(net.index()),
                });
            }
        }
        // 6. Gates outside the alarm's structural cone are invisible to
        // every checker: faults there can never be detected.
        let reachable = alarm_cone(netlist, alarm.iter().map(|n| n.index()));
        for (i, g) in gates.iter().enumerate() {
            if matches!(g.kind, GateKind::Input | GateKind::Const(_)) {
                continue;
            }
            if !reachable[i] && consts[i].is_none() {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "unobservable-by-checker",
                    message: format!(
                        "no structural path from {:?} gate to any alarm output",
                        g.kind
                    ),
                    gate: Some(i),
                });
            }
        }
    }

    LintReport {
        name: netlist.name().to_string(),
        gates: gates.len(),
        diagnostics: diags,
    }
}

/// Reverse reachability from the alarm nets through gate reads,
/// including Dff D-pin edges (the cone crosses state boundaries).
fn alarm_cone(netlist: &Netlist, alarm: impl Iterator<Item = usize>) -> Vec<bool> {
    let gates = netlist.gates();
    let mut reachable = vec![false; gates.len()];
    let mut stack: Vec<usize> = alarm.collect();
    while let Some(n) = stack.pop() {
        if reachable[n] {
            continue;
        }
        reachable[n] = true;
        for net in [gates[n].a, gates[n].b].into_iter().flatten() {
            stack.push(net.index());
        }
    }
    reachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_netlist::NetlistBuilder;

    #[test]
    fn clean_netlist_has_no_findings() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let y = b.xor(a[0], a[1]);
        b.output("y", &[y]);
        let report = lint(&b.finish(), &LintOptions::default());
        assert!(report.is_clean());
        assert!(report.diagnostics.is_empty());
        assert!(report.render().contains("0 errors"));
    }

    // `unconnected-pin` / `combinational-cycle` are defense-in-depth
    // for IR that bypasses NetlistBuilder (which enforces both at
    // `finish()`); a connected Dff must stay silent.
    #[test]
    fn connected_dff_has_no_pin_findings() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let q = b.dff();
        b.connect_dff(q, a);
        b.output("y", &[q]);
        let report = lint(&b.finish(), &LintOptions::default());
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code != "unconnected-pin" && d.code != "combinational-cycle"));
    }

    #[test]
    fn dangling_net_is_a_warning() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let _dead = b.and(a[0], a[1]);
        let y = b.or(a[0], a[1]);
        b.output("y", &[y]);
        let report = lint(&b.finish(), &LintOptions::default());
        assert!(report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "dangling-net" && d.severity == Severity::Warning));
    }

    #[test]
    fn dead_logic_waived_by_default_warning_in_strict() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let zero = b.constant(false);
        let y = b.and(a, zero);
        b.output("y", &[y]);
        let n = b.finish();
        let relaxed = lint(&n, &LintOptions::default());
        assert!(relaxed.is_clean());
        assert!(relaxed
            .diagnostics
            .iter()
            .any(|d| d.code == "dead-logic" && d.severity == Severity::Waived));
        let strict = lint(&n, &LintOptions { strict: true });
        assert!(strict
            .diagnostics
            .iter()
            .any(|d| d.code == "dead-logic" && d.severity == Severity::Warning));
    }

    #[test]
    fn constant_alarm_is_an_error() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let y = b.xor(a[0], a[1]);
        let zero = b.constant(false);
        let alarm = b.buf(zero);
        b.output("y", &[y]);
        b.output("error", &[alarm]);
        let report = lint(&b.finish(), &LintOptions::default());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "constant-alarm" && d.severity == Severity::Error));
        assert!(!report.is_clean());
    }

    #[test]
    fn unobservable_gate_flagged_only_with_alarm_present() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let seen = b.xor(a[0], a[1]);
        let unseen = b.or(a[0], a[1]);
        b.output("y", &[unseen]);
        b.output("error", &[seen]);
        let report = lint(&b.finish(), &LintOptions::default());
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "unobservable-by-checker")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].gate, Some(unseen.index()));
    }

    #[test]
    fn alarm_cone_crosses_dff_edges() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let q = b.dff();
        let d = b.buf(a);
        b.connect_dff(q, d);
        let alarm = b.buf(q);
        b.output("error", &[alarm]);
        let report = lint(&b.finish(), &LintOptions::default());
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code != "unobservable-by-checker"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let mut b = NetlistBuilder::new("t\"name");
        let a = b.input_bus("a", 1)[0];
        let q = b.dff();
        b.connect_dff(q, a);
        b.output("y", &[q]);
        let report = lint(&b.finish(), &LintOptions::default());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\\\"name"));
        assert!(json.contains("\"errors\":0"));
    }
}
