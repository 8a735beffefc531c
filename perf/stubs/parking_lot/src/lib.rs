//! Offline stand-in for `parking_lot`. `grail-buffer` declares the
//! dependency but names nothing from it, so this crate is empty.
