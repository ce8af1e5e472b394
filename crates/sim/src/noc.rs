//! Mesh network-on-chip model (Table 1: 8×8 mesh, X-Y routing, 3 cycles/hop).

use crate::divisor::Divisor;

/// An `dim × dim` mesh with X-Y dimension-ordered routing. Cores and LLC
/// banks are co-located on tiles (one bank per tile, Knights-Landing-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    dim: Divisor,
    tiles: Divisor,
    hop_cycles: u64,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize, hop_cycles: u64) -> Self {
        assert!(dim > 0, "mesh dimension must be positive");
        let dim = dim as u64;
        Self { dim: Divisor::new(dim), tiles: Divisor::new(dim * dim), hop_cycles }
    }

    /// Number of tiles.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.tiles.value() as usize
    }

    /// `(x, y)` coordinates of a tile id.
    #[must_use]
    pub fn coords(&self, tile: usize) -> (usize, usize) {
        let tile = tile as u64;
        (self.dim.rem(tile) as usize, self.dim.div(tile) as usize)
    }

    /// Manhattan hop count between two tiles under X-Y routing.
    #[must_use]
    pub fn hops(&self, from: usize, to: usize) -> u64 {
        let (fx, fy) = self.coords(self.tiles.rem(from as u64) as usize);
        let (tx, ty) = self.coords(self.tiles.rem(to as u64) as usize);
        (fx.abs_diff(tx) + fy.abs_diff(ty)) as u64
    }

    /// LLC bank owning a cache line (address-hashed across all tiles).
    #[must_use]
    pub fn bank_of(&self, line: u64) -> usize {
        // Multiplicative hash spreads sequential lines over banks.
        self.tiles.rem(line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// Round-trip cycles for a request from `core`'s tile to the bank of
    /// `line` and back.
    #[must_use]
    pub fn round_trip_cycles(&self, core: usize, line: u64) -> u64 {
        2 * self.hops(core, self.bank_of(line)) * self.hop_cycles
    }

    /// One-way hop cycles between two tiles (invalidation traffic).
    #[must_use]
    pub fn one_way_cycles(&self, from: usize, to: usize) -> u64 {
        self.hops(from, to) * self.hop_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_and_hops() {
        let m = Mesh::new(8, 3);
        assert_eq!(m.tiles(), 64);
        assert_eq!(m.coords(0), (0, 0));
        assert_eq!(m.coords(63), (7, 7));
        assert_eq!(m.hops(0, 63), 14);
        assert_eq!(m.hops(9, 9), 0);
    }

    #[test]
    fn hops_are_symmetric() {
        let m = Mesh::new(8, 3);
        for a in [0usize, 7, 13, 42, 63] {
            for b in [0usize, 7, 13, 42, 63] {
                assert_eq!(m.hops(a, b), m.hops(b, a));
            }
        }
    }

    #[test]
    fn bank_hash_spreads_lines() {
        let m = Mesh::new(8, 3);
        let mut counts = vec![0usize; m.tiles()];
        for line in 0..64_000u64 {
            counts[m.bank_of(line)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min > 500 && *max < 1500, "bank spread min={min} max={max}");
    }

    #[test]
    fn round_trip_is_twice_one_way() {
        let m = Mesh::new(4, 3);
        let line = 12345;
        let bank = m.bank_of(line);
        assert_eq!(m.round_trip_cycles(0, line), 2 * m.one_way_cycles(0, bank));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        let _ = Mesh::new(0, 3);
    }
}
