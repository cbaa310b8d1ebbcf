//! The specification-level description of one reliability analysis.

use crate::error::CampaignError;
use scdp_core::{Allocation, Operator, Technique};
use scdp_coverage::TechIndex;
use scdp_netlist::gen::{
    self_checking, self_checking_add_with, AdderRealisation, SelfCheckingDatapath, SelfCheckingSpec,
};
use std::fmt;

/// Which engine executes a campaign.
///
/// Both backends analyse the *same* [`Scenario`]; the paper's §4 flow
/// runs the functional campaign first (Table 2) and validates it at gate
/// level, which is exactly [`Backend::Functional`] followed by
/// [`Backend::GateLevel`] on an unchanged scenario.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Functional cell-level classification (`scdp-coverage`).
    Functional,
    /// Bit-parallel structural stuck-at simulation (`scdp-sim`).
    GateLevel,
}

impl Backend {
    /// Stable serialisation label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Functional => "functional",
            Backend::GateLevel => "gate-level",
        }
    }

    /// Parses a serialisation label.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Backend> {
        match s {
            "functional" => Some(Backend::Functional),
            "gate-level" => Some(Backend::GateLevel),
            _ => None,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which fault universe a campaign injects.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// The backend's canonical model: [`FaultModel::FaGate`] on the
    /// functional backend, [`FaultModel::Structural`] at gate level.
    Auto,
    /// The paper's `32·n` universe: 16 stuck-at sites × 2 polarities per
    /// five-gate full adder. Native to the functional backend; at gate
    /// level it is replayed as equivalent multiple-stuck-at groups on
    /// the generated ripple-carry netlist, making the two backends
    /// *bit-comparable* (only `+`/`−` on the RCA realisation).
    FaGate,
    /// Truth-table cell faults (functional backend only).
    Cell,
    /// Every instance-local gate stem and input pin of the generated
    /// netlist, both polarities (gate-level backend only).
    Structural,
}

impl FaultModel {
    /// Stable serialisation label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultModel::Auto => "auto",
            FaultModel::FaGate => "fa-gate",
            FaultModel::Cell => "cell",
            FaultModel::Structural => "structural",
        }
    }

    /// Parses a serialisation label.
    #[must_use]
    pub fn from_label(s: &str) -> Option<FaultModel> {
        match s {
            "auto" => Some(FaultModel::Auto),
            "fa-gate" => Some(FaultModel::FaGate),
            "cell" => Some(FaultModel::Cell),
            "structural" => Some(FaultModel::Structural),
            _ => None,
        }
    }

    /// Resolves [`FaultModel::Auto`] to the backend's canonical model.
    #[must_use]
    pub fn resolve(self, backend: Backend) -> FaultModel {
        match (self, backend) {
            (FaultModel::Auto, Backend::Functional) => FaultModel::FaGate,
            (FaultModel::Auto, Backend::GateLevel) => FaultModel::Structural,
            (m, _) => m,
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One self-checking data-path analysis scenario: *what* is analysed,
/// independent of *how* (engine, fault model, input space — those live
/// in [`CampaignSpec`](crate::CampaignSpec)).
///
/// # Example
///
/// ```
/// use scdp_campaign::Scenario;
/// use scdp_core::{Allocation, Operator, Technique};
///
/// let s = Scenario::new(Operator::Add, 4)
///     .technique(Technique::Tech1)
///     .allocation(Allocation::SingleUnit);
/// assert_eq!(s.width, 4);
/// let report = s.campaign().run().expect("valid scenario");
/// assert_eq!(report.total_situations(), 128 * 256);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The checked operator.
    pub op: Operator,
    /// Operand width in bits.
    pub width: u32,
    /// The check policy (Table 1 column).
    pub technique: Technique,
    /// Checker allocation: shared worst case or dedicated units.
    pub allocation: Allocation,
    /// Structural adder realisation (gate-level `+` datapaths; the
    /// functional backend and other operators always use ripple-carry).
    pub realisation: AdderRealisation,
}

impl Scenario {
    /// A scenario with the paper's defaults: combined techniques, shared
    /// (worst-case) allocation, ripple-carry realisation.
    #[must_use]
    pub fn new(op: Operator, width: u32) -> Self {
        Self {
            op,
            width,
            technique: Technique::Both,
            allocation: Allocation::SingleUnit,
            realisation: AdderRealisation::RippleCarry,
        }
    }

    /// Selects the check policy.
    #[must_use]
    pub fn technique(mut self, technique: Technique) -> Self {
        self.technique = technique;
        self
    }

    /// Selects the checker allocation.
    #[must_use]
    pub fn allocation(mut self, allocation: Allocation) -> Self {
        self.allocation = allocation;
        self
    }

    /// Selects the structural adder realisation.
    #[must_use]
    pub fn realisation(mut self, realisation: AdderRealisation) -> Self {
        self.realisation = realisation;
        self
    }

    /// Starts a [`CampaignSpec`](crate::CampaignSpec) for this scenario.
    #[must_use]
    pub fn campaign(self) -> crate::CampaignSpec {
        crate::CampaignSpec::new(self)
    }

    /// Generates the scenario's gate-level self-checking netlist — the
    /// circuit a [`Backend::GateLevel`] campaign simulates and `scdp
    /// lint`/`analyze` inspect.
    ///
    /// # Errors
    ///
    /// [`CampaignError::UnsupportedOperator`] for division (no
    /// gate-level checker) and [`CampaignError::UnsupportedRealisation`]
    /// for a non-ripple realisation of anything but `+`.
    pub fn elaborate(&self) -> Result<SelfCheckingDatapath, CampaignError> {
        match self.op {
            Operator::Add => Ok(self_checking_add_with(
                self.width,
                self.technique,
                self.realisation,
            )),
            Operator::Sub | Operator::Mul if self.realisation != AdderRealisation::RippleCarry => {
                Err(CampaignError::UnsupportedRealisation {
                    realisation: self.realisation,
                    op: self.op,
                })
            }
            Operator::Sub | Operator::Mul => Ok(self_checking(SelfCheckingSpec {
                op: self.op,
                technique: self.technique,
                width: self.width,
            })),
            Operator::Div => Err(CampaignError::UnsupportedOperator {
                op: self.op,
                backend: Backend::GateLevel,
            }),
        }
    }

    /// The technique column this scenario's report is canonical for.
    #[must_use]
    pub fn tech_index(&self) -> TechIndex {
        match self.technique {
            Technique::Tech1 => TechIndex::Tech1,
            Technique::Tech2 => TechIndex::Tech2,
            Technique::Both => TechIndex::Both,
        }
    }

    /// Stable serialisation label of the operator.
    #[must_use]
    pub fn op_label(&self) -> &'static str {
        match self.op {
            Operator::Add => "add",
            Operator::Sub => "sub",
            Operator::Mul => "mul",
            Operator::Div => "div",
        }
    }
}

/// Parses an operator serialisation label.
#[must_use]
pub fn op_from_label(s: &str) -> Option<Operator> {
    match s {
        "add" => Some(Operator::Add),
        "sub" => Some(Operator::Sub),
        "mul" => Some(Operator::Mul),
        "div" => Some(Operator::Div),
        _ => None,
    }
}

/// Stable serialisation label of a technique.
#[must_use]
pub fn technique_label(t: Technique) -> &'static str {
    match t {
        Technique::Tech1 => "tech1",
        Technique::Tech2 => "tech2",
        Technique::Both => "both",
    }
}

/// Parses a technique serialisation label.
#[must_use]
pub fn technique_from_label(s: &str) -> Option<Technique> {
    match s {
        "tech1" => Some(Technique::Tech1),
        "tech2" => Some(Technique::Tech2),
        "both" => Some(Technique::Both),
        _ => None,
    }
}

/// Stable serialisation label of an allocation.
#[must_use]
pub fn allocation_label(a: Allocation) -> &'static str {
    match a {
        Allocation::SingleUnit => "single-unit",
        Allocation::Dedicated => "dedicated",
    }
}

/// Parses an allocation serialisation label.
#[must_use]
pub fn allocation_from_label(s: &str) -> Option<Allocation> {
    match s {
        "single-unit" => Some(Allocation::SingleUnit),
        "dedicated" => Some(Allocation::Dedicated),
        _ => None,
    }
}

/// Stable serialisation label of an adder realisation.
#[must_use]
pub fn realisation_label(r: AdderRealisation) -> &'static str {
    match r {
        AdderRealisation::RippleCarry => "rca",
        AdderRealisation::CarryLookahead => "cla",
        AdderRealisation::CarrySave => "csa",
    }
}

/// Parses an adder-realisation serialisation label.
#[must_use]
pub fn realisation_from_label(s: &str) -> Option<AdderRealisation> {
    match s {
        "rca" => Some(AdderRealisation::RippleCarry),
        "cla" => Some(AdderRealisation::CarryLookahead),
        "csa" => Some(AdderRealisation::CarrySave),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let s = Scenario::new(Operator::Add, 8);
        assert_eq!(s.technique, Technique::Both);
        assert_eq!(s.allocation, Allocation::SingleUnit);
        assert_eq!(s.realisation, AdderRealisation::RippleCarry);
        assert_eq!(s.tech_index(), TechIndex::Both);
    }

    #[test]
    fn labels_round_trip() {
        for op in Operator::ALL {
            let s = Scenario::new(op, 4);
            assert_eq!(op_from_label(s.op_label()), Some(op));
        }
        for t in Technique::ALL {
            assert_eq!(technique_from_label(technique_label(t)), Some(t));
        }
        for a in [Allocation::SingleUnit, Allocation::Dedicated] {
            assert_eq!(allocation_from_label(allocation_label(a)), Some(a));
        }
        for r in AdderRealisation::ALL {
            assert_eq!(realisation_from_label(realisation_label(r)), Some(r));
        }
        for b in [Backend::Functional, Backend::GateLevel] {
            assert_eq!(Backend::from_label(b.label()), Some(b));
        }
        for m in [
            FaultModel::Auto,
            FaultModel::FaGate,
            FaultModel::Cell,
            FaultModel::Structural,
        ] {
            assert_eq!(FaultModel::from_label(m.label()), Some(m));
        }
        assert_eq!(Backend::from_label("nope"), None);
        assert_eq!(FaultModel::from_label("nope"), None);
    }

    #[test]
    fn auto_resolves_per_backend() {
        assert_eq!(
            FaultModel::Auto.resolve(Backend::Functional),
            FaultModel::FaGate
        );
        assert_eq!(
            FaultModel::Auto.resolve(Backend::GateLevel),
            FaultModel::Structural
        );
        assert_eq!(
            FaultModel::Cell.resolve(Backend::GateLevel),
            FaultModel::Cell
        );
    }
}
