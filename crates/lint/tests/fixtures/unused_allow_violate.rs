//! unused-allow: one directive names a rule that does not exist, one
//! names a real rule that never fires here.

// lint: allow(no-such-rule)
pub fn misspelled() {}

// lint: allow(no-unwrap-on-transport)
pub fn nothing_to_suppress() {}
