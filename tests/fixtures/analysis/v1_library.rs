//! Corpus file for V1, analyzed as a library crate's source beside
//! `v1_caller.rs` (another crate that calls it) and `v1_reexport.rs` (a
//! re-export in `rld-core`, which calls nothing).
//!
//! ```
//! let answer = demo::named_by_a_doctest();
//! ```
//!
//! ```text
//! named_in_prose_only()
//! ```

/// Called from the other crate: stays `pub`.
pub fn called_outside() -> u32 {
    only_inside() + already_private()
}

/// Named from the other crate as a type: stays `pub`.
pub struct NamedOutside;

/// Called only in this crate: V1 fires (line 22).
pub fn only_inside() -> u32 {
    1
}

/// Restricted visibility is not public API.
pub(crate) fn already_private() -> u32 {
    2
}

/// Named only by a `pub use` in `rld-core`: V1 fires (line 32).
pub const REEXPORTED_ONLY: u32 = 3;

/// Named only in a `text` block, which is not a doctest: V1 fires (line 35).
pub fn named_in_prose_only() {}

/// Named by the module's doctest, which compiles as another crate.
pub fn named_by_a_doctest() -> u32 {
    4
}

/// Reached only through `make_reached`'s signature, so waived.
// rld-allow(V1): returned by the public `make_reached`, which the other crate calls
pub struct Reached;

/// Called from the other crate; its return type needs the waiver above.
pub fn make_reached() -> Reached {
    Reached
}

/// A qualified function is an item too: V1 fires (line 52).
pub const fn qualified_inside() {}

#[cfg(test)]
mod tests {
    /// Test-only items are never public API.
    pub fn helper() {}
}
