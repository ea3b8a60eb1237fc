//! Content-addressed cache keys over the platform-stable hash.
//!
//! A [`CompileKey`] is 128 bits: two independent FNV-1a passes (standard
//! and alternative offset basis — see `ecmas_core::stable`) over the same
//! explicitly spelled-out byte stream. A single 64-bit FNV is weak enough
//! that a busy long-lived daemon could plausibly collide; two independent
//! passes push the birthday bound far past any realistic workload, with
//! no new dependency.
//!
//! Two key spaces share the type, separated by a leading kind tag so a
//! fleet key can never alias a full-result key:
//!
//! * **full** — (circuit, chip, complete [`EcmasConfig`], schedule mode):
//!   addresses a finished `CompileOutcome`.
//! * **fleet** — (circuit, every candidate chip in insertion order,
//!   complete [`EcmasConfig`], schedule mode): addresses the outcome of
//!   heterogeneous target selection over a [`ChipFleet`]. Candidate
//!   *order* is part of the identity (it breaks cost ties), so two
//!   fleets with the same chips in a different order key differently.
//!
//! Chip identity includes the defect mask (`ecmas_core::stable`'s
//! `write_chip`), so chips differing only in dead tiles or disabled
//! channels never share an entry — while a masked chip with zero
//! defects keys identically to the equivalent uniform chip.

use ecmas_chip::Chip;
use ecmas_circuit::Circuit;
use ecmas_core::compiler::{ChipFleet, EcmasConfig};
use ecmas_core::stable::{write_chip, write_circuit, write_config, StableHasher, FNV_ALT_BASIS};

/// A 128-bit content-addressed cache key (two independent FNV-1a passes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompileKey(u64, u64);

impl CompileKey {
    /// The two halves, for logging/debugging.
    #[must_use]
    pub fn parts(self) -> (u64, u64) {
        (self.0, self.1)
    }
}

#[cfg(test)]
pub(crate) fn test_key(a: u64, b: u64) -> CompileKey {
    CompileKey(a, b)
}

// Each tag is hashed into every key of its space, so a value never
// changes once keys exist (1 and 2 are unused).
const KIND_FULL: u8 = 0;
const KIND_FLEET: u8 = 3;

fn derive(write: impl Fn(&mut StableHasher)) -> CompileKey {
    let mut a = StableHasher::new();
    let mut b = StableHasher::with_basis(FNV_ALT_BASIS);
    write(&mut a);
    write(&mut b);
    CompileKey(a.finish(), b.finish())
}

/// The key of a finished compile result. `mode` is the schedule-mode
/// label (`"auto"` / `"limited"` / `"resu"`) — it lives in the serve
/// layer, so it crosses this boundary as its stable string.
#[must_use]
pub fn full_key(circuit: &Circuit, chip: &Chip, config: &EcmasConfig, mode: &str) -> CompileKey {
    derive(|h| {
        h.write_u8(KIND_FULL);
        write_circuit(h, circuit);
        write_chip(h, chip);
        write_config(h, config);
        h.write_str(mode);
    })
}

/// The key of a fleet-selection outcome: the circuit, every candidate
/// chip (full identity, insertion order), the complete config, and the
/// schedule-mode label. Adding, removing, reordering, or editing any
/// candidate — including its defect mask — changes the key, because any
/// of those can change which chip wins selection.
#[must_use]
pub fn fleet_key(
    circuit: &Circuit,
    fleet: &ChipFleet,
    config: &EcmasConfig,
    mode: &str,
) -> CompileKey {
    derive(|h| {
        h.write_u8(KIND_FLEET);
        write_circuit(h, circuit);
        h.write_usize(fleet.len());
        for chip in fleet.chips() {
            write_chip(h, chip);
        }
        write_config(h, config);
        h.write_str(mode);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::CodeModel;
    use ecmas_core::engine::{CutPolicy, GateOrder};

    fn circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        c.cnot(1, 2);
        c
    }

    #[test]
    fn full_key_sees_every_input() {
        let c = circuit();
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let cfg = EcmasConfig::default();
        let base = full_key(&c, &chip, &cfg, "auto");

        let mut c2 = circuit();
        c2.cnot(0, 3);
        assert_ne!(base, full_key(&c2, &chip, &cfg, "auto"));

        let wide = Chip::four_x(CodeModel::LatticeSurgery, 4, 3).unwrap();
        assert_ne!(base, full_key(&c, &wide, &cfg, "auto"));

        // Schedule-only knobs are compile inputs too.
        let cfg2 = EcmasConfig { order: GateOrder::CircuitOrder, ..cfg };
        assert_ne!(base, full_key(&c, &chip, &cfg2, "auto"));
        let cfg3 = EcmasConfig { cut_policy: CutPolicy::NeverModify, ..cfg };
        assert_ne!(base, full_key(&c, &chip, &cfg3, "auto"));
        let cfg4 = EcmasConfig { adjust_bandwidth: false, ..cfg };
        assert_ne!(base, full_key(&c, &chip, &cfg4, "auto"));

        assert_ne!(base, full_key(&c, &chip, &cfg, "limited"));
    }

    #[test]
    fn defect_masks_separate_keys_and_empty_masks_do_not() {
        let c = circuit();
        let uniform = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3).unwrap();
        let cfg = EcmasConfig::default();
        let base = full_key(&c, &uniform, &cfg, "auto");

        // A defect-free masked chip is the same hardware: same key.
        let masked_clean = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[])
            .unwrap();
        assert_eq!(base, full_key(&c, &masked_clean, &cfg, "auto"));

        // Distinct defect masks are distinct hardware: distinct keys.
        let dead_a = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[(2, 2)])
            .unwrap();
        let dead_b = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3)
            .unwrap()
            .with_defects(&[(2, 1)])
            .unwrap();
        let ka = full_key(&c, &dead_a, &cfg, "auto");
        let kb = full_key(&c, &dead_b, &cfg, "auto");
        assert_ne!(base, ka);
        assert_ne!(base, kb);
        assert_ne!(ka, kb);
    }

    #[test]
    fn fleet_keys_see_membership_order_and_masks() {
        let c = circuit();
        let cfg = EcmasConfig::default();
        let small = Chip::uniform(CodeModel::LatticeSurgery, 2, 2, 1, 3).unwrap();
        let big = Chip::uniform(CodeModel::LatticeSurgery, 3, 3, 1, 3).unwrap();
        let base = fleet_key(&c, &ChipFleet::new(vec![small.clone(), big.clone()]), &cfg, "auto");

        // Deterministic, and separate from the single-chip key space.
        assert_eq!(
            base,
            fleet_key(&c, &ChipFleet::new(vec![small.clone(), big.clone()]), &cfg, "auto")
        );
        assert_ne!(base, full_key(&c, &small, &cfg, "auto"));

        // Order, membership, and per-candidate defect masks all matter.
        let reordered = ChipFleet::new(vec![big.clone(), small.clone()]);
        assert_ne!(base, fleet_key(&c, &reordered, &cfg, "auto"));
        let shrunk = ChipFleet::new(vec![small.clone()]);
        assert_ne!(base, fleet_key(&c, &shrunk, &cfg, "auto"));
        let masked = ChipFleet::new(vec![small, big.with_defects(&[(0, 0)]).unwrap()]);
        assert_ne!(base, fleet_key(&c, &masked, &cfg, "auto"));
    }

    /// Keys address entries across daemon restarts and releases, so the
    /// hashed bytes are pinned: a change here changes every key.
    #[test]
    fn key_bytes_are_pinned() {
        let c = circuit();
        let chip = Chip::congested(CodeModel::DoubleDefect, 4, 3).unwrap();
        let cfg = EcmasConfig::default();
        assert_eq!(
            full_key(&c, &chip, &cfg, "auto").parts(),
            (0x5682_05fe_8ca2_7286, 0xcaa0_b5ef_b2b9_2455)
        );
        assert_eq!(
            fleet_key(&c, &ChipFleet::new(vec![chip]), &cfg, "limited").parts(),
            (0x3614_f9e1_52b9_e0d0, 0xd3ad_2cb4_215f_d7c1)
        );
    }

    #[test]
    fn keys_are_deterministic_across_constructions() {
        let c = circuit();
        let chip = Chip::congested(CodeModel::LatticeSurgery, 4, 3).unwrap();
        let cfg = EcmasConfig::default();
        assert_eq!(full_key(&c, &chip, &cfg, "auto"), full_key(&c, &chip, &cfg, "auto"));
    }
}
