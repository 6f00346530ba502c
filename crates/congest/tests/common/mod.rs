//! Support shared by the `mwc-congest` integration tests.

#![allow(dead_code)]

pub mod flood_spec;
