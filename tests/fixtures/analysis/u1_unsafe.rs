//! Known-bad corpus file for rule U1: `unsafe` in a workspace that has
//! none. Analyzed under an arbitrary path label by `tests/tests/analysis.rs`.

/// Even a "harmless" unchecked read is out — every crate is
/// `forbid(unsafe_code)`, and U1 is the audit-side twin of that attribute.
pub fn peek(v: &[u8], i: usize) -> u8 {
    // SAFETY: caller promises i < v.len() — a justification does not make
    // it allowed, so this still violates U1.
    unsafe { *v.get_unchecked(i) }
}
