//! Multi-word SIMD lanes: the `Words<const L: usize>` abstraction.
//!
//! The original engine packed 64 input vectors into one `u64` per net.
//! The packed evaluators are generic over a [`LaneWord`] — anything
//! that behaves like a word of independent boolean lanes. Two
//! implementations exist:
//!
//! * `u64` — the classic single-word path, kept for the public
//!   differential-test API;
//! * [`Words<L>`] — `L` `u64` limbs evaluated together (`L ∈ {4, 8}` in
//!   practice, i.e. 256/512 lanes per gate operation). The bitwise ops
//!   are plain array loops without `unsafe` or intrinsics (the
//!   workspace forbids `unsafe_code`, so there is no runtime CPU
//!   feature dispatch either). The build sets no `target-cpu`, so on
//!   x86-64 the compiler lowers them to the SSE2 baseline: 128-bit
//!   ops, two limbs per instruction; AVX2/AVX-512 code appears only
//!   under an explicit `-C target-cpu`.
//!
//! The wide word pays off less through vector width than through
//! amortisation: per gate, the evaluation loop reads one gate record,
//! bounds-checks its fanins and dispatches once on the gate's kind
//! ([`crate::Engine`]'s gate kernel), and at 8 limbs that fixed cost is
//! shared by 512 lanes instead of 64.
//!
//! Lane-order contract: limb `k` of a wide word corresponds to the
//! `k`-th consecutive 64-vector scalar batch (see
//! [`crate::InputPlan::wide_stream`]). Campaign drivers consume wide
//! verdicts limb by limb in that order, which keeps tallies, drop
//! points and latency histograms bit-identical across lane widths.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A word of 64 independent boolean lanes — or several of them fused.
///
/// The packed evaluators ([`crate::Engine`], [`crate::SeqEngine`]) are
/// generic over this trait; gate evaluation uses only the bitwise ops
/// plus [`LaneWord::splat`] for stuck-value injection.
pub trait LaneWord:
    Copy
    + Eq
    + Send
    + Sync
    + fmt::Debug
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
{
    /// All lanes clear.
    const ZERO: Self;
    /// All lanes set.
    const ALL: Self;
    /// Number of 64-bit limbs (`width() / 64`).
    const LIMBS: usize;

    /// Splats one logic value across every lane.
    #[must_use]
    fn splat(value: bool) -> Self {
        if value {
            Self::ALL
        } else {
            Self::ZERO
        }
    }

    /// `true` when no lane is set.
    #[must_use]
    fn is_zero(self) -> bool;
}

impl LaneWord for u64 {
    const ZERO: Self = 0;
    const ALL: Self = u64::MAX;
    const LIMBS: usize = 1;

    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }
}

/// `L` fused 64-lane words: `64 * L` input vectors per gate operation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Words<const L: usize>(pub [u64; L]);

impl<const L: usize> Words<L> {
    /// All lanes clear.
    pub const ZERO: Self = Words([0; L]);
    /// All lanes set.
    pub const ALL: Self = Words([u64::MAX; L]);

    /// Total number of boolean lanes.
    pub const LANES: usize = 64 * L;

    /// The `k`-th 64-lane limb.
    #[inline]
    #[must_use]
    pub fn limb(self, k: usize) -> u64 {
        self.0[k]
    }

    /// Number of set lanes across all limbs.
    #[inline]
    #[must_use]
    pub fn count_ones(self) -> u64 {
        let mut n = 0u64;
        let mut i = 0;
        while i < L {
            n += self.0[i].count_ones() as u64;
            i += 1;
        }
        n
    }
}

impl<const L: usize> Default for Words<L> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const L: usize> LaneWord for Words<L> {
    const ZERO: Self = Words([0; L]);
    const ALL: Self = Words([u64::MAX; L]);
    const LIMBS: usize = L;

    #[inline]
    fn is_zero(self) -> bool {
        let mut i = 0;
        while i < L {
            if self.0[i] != 0 {
                return false;
            }
            i += 1;
        }
        true
    }
}

impl<const L: usize> BitAnd for Words<L> {
    type Output = Self;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        Words(std::array::from_fn(|i| self.0[i] & rhs.0[i]))
    }
}

impl<const L: usize> BitOr for Words<L> {
    type Output = Self;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        Words(std::array::from_fn(|i| self.0[i] | rhs.0[i]))
    }
}

impl<const L: usize> BitXor for Words<L> {
    type Output = Self;
    #[inline]
    fn bitxor(self, rhs: Self) -> Self {
        Words(std::array::from_fn(|i| self.0[i] ^ rhs.0[i]))
    }
}

impl<const L: usize> Not for Words<L> {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        Words(std::array::from_fn(|i| !self.0[i]))
    }
}

/// Lane-width selection for the packed campaign drivers.
///
/// `Auto` resolves to the widest supported configuration (8 limbs, 512
/// vectors per gate operation); the explicit variants pin the width for
/// differential testing and benchmarking. Results are bit-identical at
/// every width — the drivers consume wide verdicts limb by limb in
/// scalar-batch order — so this knob trades nothing but throughput.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Lanes {
    /// Widest supported path (currently [`Lanes::L8`]).
    #[default]
    Auto,
    /// One 64-lane word per operation (the original engine).
    L1,
    /// Four limbs: 256 lanes per operation.
    L4,
    /// Eight limbs: 512 lanes per operation.
    L8,
}

impl Lanes {
    /// The lane widths a campaign driver can be asked to pin.
    pub const CHOICES: [Lanes; 3] = [Lanes::L1, Lanes::L4, Lanes::L8];

    /// Number of 64-bit limbs this selection resolves to.
    #[must_use]
    pub const fn limbs(self) -> usize {
        match self {
            Lanes::L1 => 1,
            Lanes::L4 => 4,
            Lanes::Auto | Lanes::L8 => 8,
        }
    }

    /// Number of boolean lanes (`64 * limbs`).
    #[must_use]
    pub const fn width(self) -> usize {
        64 * self.limbs()
    }

    /// Parses a limb count (`1`, `4` or `8`).
    #[must_use]
    pub const fn from_limbs(limbs: usize) -> Option<Lanes> {
        match limbs {
            1 => Some(Lanes::L1),
            4 => Some(Lanes::L4),
            8 => Some(Lanes::L8),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_bitwise_ops_act_per_limb() {
        let a = Words([0b1100u64, u64::MAX, 0, 5]);
        let b = Words([0b1010u64, 0, u64::MAX, 12]);
        assert_eq!((a & b).0, [0b1000, 0, 0, 4]);
        assert_eq!((a | b).0, [0b1110, u64::MAX, u64::MAX, 13]);
        assert_eq!((a ^ b).0, [0b0110, u64::MAX, u64::MAX, 9]);
        assert_eq!((!Words::<4>::ZERO).0, [u64::MAX; 4]);
    }

    #[test]
    fn splat_zero_and_counts() {
        assert_eq!(Words::<8>::splat(true), Words::<8>::ALL);
        assert_eq!(Words::<8>::splat(false), Words::<8>::ZERO);
        assert!(Words::<4>::ZERO.is_zero());
        assert!(!Words([0, 0, 1, 0]).is_zero());
        assert_eq!(Words([3u64, 0, u64::MAX, 1]).count_ones(), 2 + 64 + 1);
        assert_eq!(<u64 as LaneWord>::splat(true), u64::MAX);
        assert!(0u64.is_zero());
    }

    #[test]
    fn lanes_resolution() {
        assert_eq!(Lanes::Auto.limbs(), 8);
        assert_eq!(Lanes::L1.width(), 64);
        assert_eq!(Lanes::L4.width(), 256);
        assert_eq!(Lanes::L8.width(), 512);
        assert_eq!(Lanes::from_limbs(4), Some(Lanes::L4));
        assert_eq!(Lanes::from_limbs(3), None);
        assert_eq!(Lanes::default(), Lanes::Auto);
    }
}
