//! Corpus file for V1: `rld-core`'s re-exports name items but call none.

pub use demo::REEXPORTED_ONLY;
pub use demo::{only_inside, NamedOutside};
