//! Information-leakage audit (paper §7, Tables 3 and 4).
//!
//! COPSE's privacy story is not all-or-nothing: depending on which
//! notional parties (server `S`, model owner `M`, data owner `D`)
//! coincide or collude, different *structural* quantities leak — the
//! quantized branching `q` (from the reshuffle matrix width), the
//! branching `b` (from level-matrix widths and the result length), the
//! forest depth `d` (from the count of level matrices/masks), and the
//! maximum multiplicity `K` (revealed explicitly so queries can be
//! padded). This module encodes those tables as executable data so the
//! harness can regenerate them and the tests can pin them to the
//! paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A notional protocol participant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Party {
    /// The evaluator.
    Server,
    /// The model owner.
    ModelOwner,
    /// The data owner.
    DataOwner,
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Party::Server => "S",
            Party::ModelOwner => "M",
            Party::DataOwner => "D",
        })
    }
}

/// A piece of information that can leak to a party.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LeakedItem {
    /// Quantized branching `q` (reshuffle matrix width).
    QuantizedBranching,
    /// Branching `b` (level matrix width / result vector length).
    Branching,
    /// Maximum forest depth `d` (number of level matrices and masks).
    MaxDepth,
    /// Maximum feature multiplicity `K` (explicitly revealed).
    MaxMultiplicity,
    /// Full compromise: all model and data contents.
    Everything,
}

impl fmt::Display for LeakedItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LeakedItem::QuantizedBranching => "q",
            LeakedItem::Branching => "b",
            LeakedItem::MaxDepth => "d",
            LeakedItem::MaxMultiplicity => "K",
            LeakedItem::Everything => "everything",
        })
    }
}

/// The party configurations analysed by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Two physical parties: model and data owned by the same party,
    /// computation offloaded (`S`, `M = D`) — the classic FHE
    /// offloading model used in the main benchmarks.
    OffloadedCompute,
    /// Two physical parties: the server owns the model (`S = M`, `D`).
    ServerOwnsModel,
    /// Two physical parties: the client evaluates (`S = D`, `M`).
    ClientEvaluates,
    /// Three physical parties, no collusion.
    ThreeParty,
    /// Three parties; the server colludes with the model owner.
    ThreePartyServerModelCollusion,
    /// Three parties; the server colludes with the data owner.
    ThreePartyServerDataCollusion,
}

impl Scenario {
    /// All scenarios, in the paper's table order (Table 3 rows, then
    /// Table 4 rows).
    pub const ALL: [Scenario; 6] = [
        Scenario::OffloadedCompute,
        Scenario::ServerOwnsModel,
        Scenario::ClientEvaluates,
        Scenario::ThreeParty,
        Scenario::ThreePartyServerModelCollusion,
        Scenario::ThreePartyServerDataCollusion,
    ];

    /// Human-readable name matching the paper's row labels.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::OffloadedCompute => "S, M = D",
            Scenario::ServerOwnsModel => "S = M, D",
            Scenario::ClientEvaluates => "S = D, M",
            Scenario::ThreeParty => "S, M, D, no collusion",
            Scenario::ThreePartyServerModelCollusion => "S, M, D, S colludes with M",
            Scenario::ThreePartyServerDataCollusion => "S, M, D, S colludes with D",
        }
    }
}

/// What each notional party learns in one scenario.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeakageProfile {
    /// The analysed scenario.
    pub scenario: Scenario,
    /// Items revealed to the server.
    pub to_server: Vec<LeakedItem>,
    /// Items revealed to the model owner.
    pub to_model_owner: Vec<LeakedItem>,
    /// Items revealed to the data owner.
    pub to_data_owner: Vec<LeakedItem>,
}

impl LeakageProfile {
    /// Items revealed to one party.
    pub fn revealed_to(&self, party: Party) -> &[LeakedItem] {
        match party {
            Party::Server => &self.to_server,
            Party::ModelOwner => &self.to_model_owner,
            Party::DataOwner => &self.to_data_owner,
        }
    }
}

/// The leakage profile of a scenario (paper Tables 3 and 4).
pub fn leakage_profile(scenario: Scenario) -> LeakageProfile {
    use LeakedItem::*;
    let (to_server, to_model_owner, to_data_owner) = match scenario {
        // Table 3. Matrices are encrypted as one ciphertext per
        // diagonal, so the server learns each matrix's column count: q
        // from R, b from the level matrices, and d from how many level
        // matrices and masks arrive. A fused model (no R, q-column
        // level matrices) shows the same q and d, and `ModelMeta`
        // still carries b.
        Scenario::OffloadedCompute => (
            vec![QuantizedBranching, Branching, MaxDepth],
            vec![],
            vec![],
        ),
        // The server owns the model, so nothing new reaches it; the
        // data owner needs K for padding and learns b + 1 as the
        // length of the returned inference vector.
        Scenario::ServerOwnsModel => (vec![], vec![], vec![MaxMultiplicity, Branching]),
        // The client evaluates: everything the server would see plus K
        // reaches the S = D party.
        Scenario::ClientEvaluates => (
            vec![QuantizedBranching, Branching, MaxMultiplicity, MaxDepth],
            vec![],
            vec![QuantizedBranching, Branching, MaxMultiplicity],
        ),
        // Table 4.
        Scenario::ThreeParty => (
            vec![QuantizedBranching, Branching, MaxDepth, MaxMultiplicity],
            vec![],
            vec![MaxMultiplicity, Branching],
        ),
        Scenario::ThreePartyServerModelCollusion => (
            vec![Everything],
            vec![Everything],
            vec![MaxMultiplicity, Branching],
        ),
        Scenario::ThreePartyServerDataCollusion => (vec![Everything], vec![], vec![Everything]),
    };
    LeakageProfile {
        scenario,
        to_server,
        to_model_owner,
        to_data_owner,
    }
}

/// Renders a scenario set as an aligned text table (the harness output
/// for Tables 3 and 4).
pub fn render_table(scenarios: &[Scenario]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} | {:<12} | {:<12} | {:<12}\n",
        "Scenario", "to S", "to M", "to D"
    ));
    out.push_str(&"-".repeat(74));
    out.push('\n');
    for &s in scenarios {
        let p = leakage_profile(s);
        let fmt_items = |items: &[LeakedItem]| -> String {
            if items.is_empty() {
                "(nothing)".to_string()
            } else {
                items
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        out.push_str(&format!(
            "{:<28} | {:<12} | {:<12} | {:<12}\n",
            s.label(),
            fmt_items(&p.to_server),
            fmt_items(&p.to_model_owner),
            fmt_items(&p.to_data_owner),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use LeakedItem::*;

    #[test]
    fn table3_row1_offloaded() {
        let p = leakage_profile(Scenario::OffloadedCompute);
        assert_eq!(p.to_server, vec![QuantizedBranching, Branching, MaxDepth]);
        assert!(p.to_model_owner.is_empty());
        assert!(p.to_data_owner.is_empty());
    }

    #[test]
    fn table3_row2_server_owns_model() {
        let p = leakage_profile(Scenario::ServerOwnsModel);
        assert!(p.to_server.is_empty());
        assert_eq!(p.to_data_owner, vec![MaxMultiplicity, Branching]);
    }

    #[test]
    fn table3_row3_client_evaluates() {
        let p = leakage_profile(Scenario::ClientEvaluates);
        assert_eq!(
            p.to_server,
            vec![QuantizedBranching, Branching, MaxMultiplicity, MaxDepth]
        );
        assert_eq!(
            p.to_data_owner,
            vec![QuantizedBranching, Branching, MaxMultiplicity]
        );
    }

    #[test]
    fn table4_no_collusion() {
        let p = leakage_profile(Scenario::ThreeParty);
        assert_eq!(
            p.to_server,
            vec![QuantizedBranching, Branching, MaxDepth, MaxMultiplicity]
        );
        assert!(p.to_model_owner.is_empty());
        assert_eq!(p.to_data_owner, vec![MaxMultiplicity, Branching]);
    }

    #[test]
    fn table4_collusion_compromises_everything() {
        let sm = leakage_profile(Scenario::ThreePartyServerModelCollusion);
        assert_eq!(sm.to_server, vec![Everything]);
        assert_eq!(sm.to_model_owner, vec![Everything]);
        assert_eq!(sm.to_data_owner, vec![MaxMultiplicity, Branching]);

        let sd = leakage_profile(Scenario::ThreePartyServerDataCollusion);
        assert_eq!(sd.to_server, vec![Everything]);
        assert!(sd.to_model_owner.is_empty());
        assert_eq!(sd.to_data_owner, vec![Everything]);
    }

    #[test]
    fn model_owner_never_learns_anything_without_collusion() {
        // The strongest property of the protocol: in every
        // non-colluding configuration the model owner learns nothing
        // about the data.
        for s in Scenario::ALL {
            if s != Scenario::ThreePartyServerModelCollusion {
                assert!(
                    leakage_profile(s).to_model_owner.is_empty(),
                    "{}",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn render_lists_all_rows() {
        let text = render_table(&Scenario::ALL);
        for s in Scenario::ALL {
            assert!(text.contains(s.label()), "{}", s.label());
        }
        assert!(text.contains("(nothing)"));
    }

    #[test]
    fn revealed_to_accessor() {
        let p = leakage_profile(Scenario::ThreeParty);
        assert_eq!(p.revealed_to(Party::Server).len(), 4);
        assert_eq!(p.revealed_to(Party::ModelOwner).len(), 0);
        assert_eq!(p.revealed_to(Party::DataOwner).len(), 2);
    }

    #[test]
    fn display_names() {
        assert_eq!(Party::Server.to_string(), "S");
        assert_eq!(LeakedItem::QuantizedBranching.to_string(), "q");
        assert_eq!(LeakedItem::Everything.to_string(), "everything");
    }
}
