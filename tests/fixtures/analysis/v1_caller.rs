//! Corpus file for V1: another crate calling `v1_library.rs`.

fn uses_the_library() -> u32 {
    let _named = demo::NamedOutside;
    let _reached = demo::make_reached();
    demo::called_outside()
}
