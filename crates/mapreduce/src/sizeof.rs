//! Shuffle-size accounting.
//!
//! The engine charges each shuffled `(key, value)` record its
//! [`SizeOf::size_bytes`], approximating the serialized record size a real
//! Map-Reduce shuffle would move. TKIJ's input-cost optimization (DTB's
//! `inCost`) and the paper's "LPT incurs 43 % higher shuffle cost"
//! comparison are measured against this counter.

/// Approximate serialized size of a shuffled datum.
pub trait SizeOf {
    /// Size in bytes.
    fn size_bytes(&self) -> usize;
}

macro_rules! fixed_size {
    ($($t:ty),*) => {
        $(impl SizeOf for $t {
            fn size_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

// The widths the engine's jobs build their records from.
fixed_size!(u8, u16, u32, u64, i64, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_use_memory_size() {
        assert_eq!(7u64.size_bytes(), 8);
        assert_eq!(7u8.size_bytes(), 1);
        assert_eq!(1.5f64.size_bytes(), 8);
    }
}
